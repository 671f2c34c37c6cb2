let () =
  Alcotest.run "highlight"
    (List.concat [ Test_util.suite; Test_sim.suite; Test_device.suite; Test_lfs.suite; Test_checksum.suite; Test_ffs.suite; Test_highlight.suite; Test_service.suite; Test_policy.suite; Test_extra.suite; Test_obs.suite; Test_attrib.suite; Test_fault.suite; Test_recovery.suite; Test_media.suite; Test_streaming.suite; Test_decision.suite; Test_health.suite; Test_pipeline.suite; Test_segbufs.suite; Test_walker.suite; Test_blockbufs.suite; Test_bcache.suite ])

open Highlight

type policy_fn = Lfs.Fs.t -> target_bytes:int -> int list

let stp_policy cfg fs ~target_bytes = Stp.select fs cfg ~target_bytes

(* Only files with at least one disk-resident block are worth handing to
   the migrator again. *)
let disk_resident st inum =
  let fs = State.fs st in
  match Lfs.Fs.get_inode fs inum with
  | exception Not_found -> false
  | ino ->
      let found = ref false in
      Lfs.File.iter_assigned_blocks (Lfs.Fs.map fs) ino (fun _ addr ->
          if Addr_space.is_disk st.State.aspace addr then found := true);
      !found

let run_once ?(policy_id = "custom") st ~policy ~low_water ~high_water =
  let fs = State.fs st in
  if Lfs.Fs.nclean fs >= low_water then 0
  else begin
    let seg_bytes = Lfs.Param.seg_bytes (Lfs.Fs.param fs) in
    let deficit_segs = max 1 (high_water - Lfs.Fs.nclean fs) in
    let target_bytes = deficit_segs * seg_bytes in
    let inums = List.filter (disk_resident st) (policy fs ~target_bytes) in
    (* the acted-on set — the ranking sites already record what they
       passed over, this records what actually went down the hierarchy *)
    if inums <> [] && Obs.Decision.enabled () then begin
      let now = Lfs.Fs.now fs in
      let cand inum =
        let atime = (Lfs.Imap.get (Lfs.Fs.imap fs) inum).Lfs.Imap.atime in
        let size =
          try (Lfs.Fs.get_inode fs inum).Lfs.Inode.size with Not_found -> 0
        in
        Obs.Decision.candidate inum
          ~feats:
            {
              Obs.Decision.idle = Float.max 0.0 (now -. atime);
              size;
              util = 0.0;
              temp = Obs.Decision.file_temp ~now inum;
              age = 0.0;
            }
      in
      Obs.Decision.emit ~now ~site:Obs.Decision.Automigrate ~policy:policy_id
        ~budget:target_bytes ~chosen:(List.map cand inums) ~rejected:[] ()
    end;
    if inums <> [] then ignore (Migrator.migrate_files st inums);
    (* reclaim the emptied disk segments *)
    ignore (Lfs.Cleaner.clean_until fs ~target_clean:high_water ());
    List.length inums
  end

let spawn st ?(period = 10.0) ?policy_id ~policy ~low_water ~high_water () =
  let stopped = ref false in
  Sim.Engine.spawn st.State.engine ~name:"automigrate" (fun () ->
      let rec loop () =
        Sim.Engine.delay period;
        if not !stopped then begin
          (try ignore (run_once ?policy_id st ~policy ~low_water ~high_water)
           with Lfs.Fs.No_space | State.Tertiary_full -> ());
          loop ()
        end
      in
      loop ());
  fun () -> stopped := true

(** The block-map pseudo-device driver (paper §6.6): presents the whole
    unified address space as one device to the LFS core. Disk addresses
    pass straight to the concatenated disk driver; tertiary addresses
    are looked up in the segment cache, triggering a demand fetch
    through the service process on a miss — the reading process sleeps
    until the service completes the fill, exactly as the paper's kernel
    blocks the original I/O. *)

val dev : State.t -> Lfs.Dev.t

val read_block_into : State.t -> int -> dst:Bytes.t -> dst_off:int -> unit
(** Reads one block wherever it lives into [dst] at byte [dst_off]: disk
    directly, tertiary via the cache disk when the segment is resident,
    straight from the jukebox otherwise. Disk-resident blocks land in
    [dst] with no intermediate buffer (the migrator gathers its staging
    image this way). *)

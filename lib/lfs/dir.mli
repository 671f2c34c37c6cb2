(** Namespace operations: path resolution and directory maintenance.
    Paths are absolute, '/'-separated; the root directory is inum 2.
    Directory contents are ordinary file blocks, so everything here
    rides on the file system's block access, and in LFS migrates like
    file data.

    The namespace is written once, over {!FS}: LFS ({!Fs}) is the
    instance this module includes, and FFS instantiates {!Make} with its
    own inode allocation and block placement. *)

exception Exists of string
exception Not_dir of string
exception Not_empty of string

(** What the namespace needs of a file system. [get_inode] raises
    [Not_found] for an unallocated inum; blocks are read through its
    block [map]; [get_block_for_write] dirties one for a change in place;
    [put_block] replaces its content wholesale. [alloc_inode] is told
    the directory that will hold the new entry, and [free] releases a
    file whose last link is gone: its blocks, then the inode. *)
module type FS = sig
  type t

  val block_size : t -> int
  val now : t -> float
  val get_inode : t -> int -> Inode.t
  val map : t -> Bmap.t
  val get_block_for_write : t -> Inode.t -> Bkey.t -> Bytes.t
  val put_block : t -> Inode.t -> Bkey.t -> Bytes.t -> unit
  val alloc_inode : t -> kind:Inode.kind -> parent:Inode.t -> Inode.t
  val mark_inode_dirty : t -> Inode.t -> unit
  val free : t -> Inode.t -> unit
  val read : t -> Inode.t -> off:int -> len:int -> Bytes.t
  val write : t -> Inode.t -> off:int -> Bytes.t -> unit
end

module type S = sig
  type fs

  val lookup : fs -> Inode.t -> string -> int option
  (** One component in one directory. *)

  val namei : fs -> string -> Inode.t
  (** Resolves an absolute path; raises [Not_found]. *)

  val namei_opt : fs -> string -> Inode.t option

  val create_file : fs -> string -> Inode.t
  (** Creates an empty regular file; raises {!Exists} / [Not_found]. *)

  val mkdir : fs -> string -> Inode.t

  val link : fs -> existing:string -> path:string -> unit
  (** Hard link to a regular file. *)

  val symlink : fs -> target:string -> path:string -> unit
  val readlink : fs -> string -> string

  val unlink : fs -> string -> unit
  (** Removes a file name; frees the file when the last link drops. *)

  val rmdir : fs -> string -> unit
  val rename : fs -> src:string -> dst:string -> unit

  val readdir : fs -> Inode.t -> (string * int) list
  (** Entries including "." and "..". *)

  val walk : fs -> string -> (string -> Inode.t -> unit) -> unit
  (** Depth-first traversal from a directory path, invoking the
      callback on every entry (files and directories) with its full
      path. Does not disturb access times — the property the
      namespace-locality migration policy depends on (paper §5.3). *)
end

module Make (F : FS) : S with type fs := F.t

include S with type fs := Fs.t

(** Directory-tree generator for the namespace-locality experiments:
    builds software-project-like subtrees (the paper's example of units
    whose files are accessed together). *)

type spec = {
  fanout : int;  (** subdirectories per directory *)
  depth : int;
  files_per_dir : int;
  file_bytes_min : int;
  file_bytes_max : int;
}

val small : spec

val build :
  Lfs.Fs.t -> seed:int -> root:string -> spec -> string list
(** Creates the tree under [root] (which must exist) and returns the
    file paths created. *)

val split_at : int -> 'a list -> 'a list * 'a list
(** [split_at n l] is [(first n elements, the rest)] in one pass —
    shorter lists yield [(l, [])]. The single-pass replacement for the
    [List.filteri]-twice slicing idiom (quadratic per chunk). *)

val mkdir_p : string -> unit
(** Creates a directory and its missing parents; existing ones are left
    alone. *)

val json_escape : string -> string
(** The body of a JSON string literal holding [s] (no quotes added). *)

val write_file : string -> string -> unit
(** [write_file path s] replaces [path]'s contents with [s]. *)

external apply : unit -> unit = "util_malloc_policy"

(* the library links with -linkall, so this runs once in every process *)
let () = apply ()

(** The C allocator policy of the process: glibc never trims its heap and
    serves only chunks of 32 MiB or more with mmap, so memory the OCaml
    runtime frees stays in the process instead of being returned to the
    kernel and faulted back in. Applied once, when the program starts;
    a no-op on other C libraries. There is no setting. *)

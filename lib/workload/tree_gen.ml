open Lfs

type spec = {
  fanout : int;
  depth : int;
  files_per_dir : int;
  file_bytes_min : int;
  file_bytes_max : int;
}

let small =
  { fanout = 3; depth = 2; files_per_dir = 4; file_bytes_min = 2048; file_bytes_max = 20480 }

let build fs ~seed ~root spec =
  let rng = Util.Rng.create seed in
  let created = ref [] in
  let rec go dir depth =
    for f = 0 to spec.files_per_dir - 1 do
      let path = Printf.sprintf "%s/file%d" dir f in
      let ino = Dir.create_file fs path in
      let n =
        spec.file_bytes_min + Util.Rng.int rng (max 1 (spec.file_bytes_max - spec.file_bytes_min))
      in
      File.write fs ino ~off:0 (Bytes.init n (fun i -> Char.chr ((seed + i) land 0xff)));
      created := path :: !created
    done;
    if depth < spec.depth then
      for d = 0 to spec.fanout - 1 do
        let sub = Printf.sprintf "%s/dir%d" dir d in
        ignore (Dir.mkdir fs sub);
        go sub (depth + 1)
      done
  in
  go root 1;
  List.rev !created

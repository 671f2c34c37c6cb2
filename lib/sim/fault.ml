type op = Read | Write | Swap | Transfer

type kind =
  | Media_error
  | Device_hang of float
  | Robot_jam
  | Bus_reset

type persistence = Transient | Permanent

type descriptor = {
  site : string;
  op : op;
  kind : kind;
  persistence : persistence;
}

exception Injected of descriptor

type trigger =
  | Window of float * float
  | Op_count of int
  | Probability of float
  | Always

type rule = {
  r_site : string;
  r_ops : op list;
  r_trigger : trigger;
  r_kind : kind;
  r_persistence : persistence;
}

(* Per-rule mutable trigger state: Window and Op_count fire exactly
   once; Probability draws from the rule's own stream so rules never
   perturb each other's sequences. *)
type armed_rule = {
  rule : rule;
  mutable fired : bool;
  mutable seen : int;  (** matching ops so far *)
  rng : Util.Rng.t;
}

type plan = {
  seed : int;
  armed : armed_rule list;
  dead : (string, descriptor) Hashtbl.t;
  fires : (string, int) Hashtbl.t;
  mutable n_injected : int;
}

let plan ?(seed = 1) rules =
  let master = Util.Rng.create seed in
  {
    seed;
    armed =
      List.map
        (fun rule -> { rule; fired = false; seen = 0; rng = Util.Rng.split master })
        rules;
    dead = Hashtbl.create 4;
    fires = Hashtbl.create 8;
    n_injected = 0;
  }

let rules p = List.map (fun a -> a.rule) p.armed
let injected p = p.n_injected

let injected_by_site p =
  Hashtbl.fold (fun site n acc -> (site, n) :: acc) p.fires []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---------- ambient state ---------- *)

let ambient : (Engine.t * plan) option ref = ref None
let ambient_metrics : Metrics.t option ref = ref None

let install engine ?metrics p =
  ambient := Some (engine, p);
  ambient_metrics := metrics

let clear () =
  ambient := None;
  ambient_metrics := None

(* match, not polymorphic (<>): checked on every modelled device op *)
let active () = match !ambient with None -> false | Some _ -> true

(* ---------- names ---------- *)

let op_name = function
  | Read -> "read"
  | Write -> "write"
  | Swap -> "swap"
  | Transfer -> "xfer"

let kind_name = function
  | Media_error -> "media_error"
  | Device_hang _ -> "hang"
  | Robot_jam -> "robot_jam"
  | Bus_reset -> "bus_reset"

let persistence_name = function Transient -> "transient" | Permanent -> "permanent"

let descriptor_to_string d =
  Printf.sprintf "%s%s on %s during %s" (kind_name d.kind)
    (match d.persistence with Permanent -> " (permanent)" | Transient -> "")
    d.site (op_name d.op)

(* ---------- matching and firing ---------- *)

let site_matches pat site =
  if pat = "*" then true
  else
    let n = String.length pat in
    if n > 0 && pat.[n - 1] = '*' then
      let prefix = String.sub pat 0 (n - 1) in
      String.length site >= n - 1 && String.sub site 0 (n - 1) = prefix
    else pat = site

let op_matches ops op = ops = [] || List.mem op ops

let note_metrics d =
  match !ambient_metrics with
  | None -> ()
  | Some m ->
      Metrics.incr (Metrics.counter m "faults.injected");
      Metrics.incr (Metrics.counter m ("faults." ^ kind_name d.kind))

let fire p d =
  p.n_injected <- p.n_injected + 1;
  Hashtbl.replace p.fires d.site
    (1 + Option.value ~default:0 (Hashtbl.find_opt p.fires d.site));
  note_metrics d;
  Trace.instant ~track:d.site ~cat:"fault" (kind_name d.kind)
    ~args:[ ("op", op_name d.op); ("persistence", persistence_name d.persistence) ];
  if d.persistence = Permanent then Hashtbl.replace p.dead d.site d

let site_dead site =
  match !ambient with None -> false | Some (_, p) -> Hashtbl.mem p.dead site

let deliver d =
  match d.kind with
  | Device_hang span ->
      Trace.span ~track:d.site ~cat:"fault" "fault:hang" (fun () -> Engine.delay span)
  | Media_error | Robot_jam | Bus_reset -> raise (Injected d)

let check ~site op =
  match !ambient with
  | None -> ()
  | Some (engine, p) -> (
      match Hashtbl.find_opt p.dead site with
      | Some d ->
          (* a dead site fails every operation outright, hang or not *)
          (match !ambient_metrics with
          | Some m -> Metrics.incr (Metrics.counter m "faults.dead_site_hits")
          | None -> ());
          raise (Injected { d with op })
      | None ->
          let now = Engine.now engine in
          let rec scan = function
            | [] -> ()
            | a :: rest ->
                if site_matches a.rule.r_site site && op_matches a.rule.r_ops op then begin
                  a.seen <- a.seen + 1;
                  let fires =
                    match a.rule.r_trigger with
                    | Always -> true
                    | Window (t0, t1) ->
                        (not a.fired) && now >= t0 && now < t1
                    | Op_count n -> (not a.fired) && a.seen = n
                    | Probability pr -> Util.Rng.float a.rng 1.0 < pr
                  in
                  if fires then begin
                    a.fired <- true;
                    let d =
                      {
                        site;
                        op;
                        kind = a.rule.r_kind;
                        persistence = a.rule.r_persistence;
                      }
                    in
                    fire p d;
                    deliver d
                  end
                  else scan rest
                end
                else scan rest
          in
          scan p.armed)

(* ---------- DSL ---------- *)

let rule_to_string r =
  let ops =
    match r.r_ops with
    | [] -> "*"
    | ops -> String.concat "," (List.map op_name ops)
  in
  let trigger =
    match r.r_trigger with
    | Window (a, b) -> Printf.sprintf "window=%g..%g" a b
    | Op_count n -> Printf.sprintf "op=%d" n
    | Probability p -> Printf.sprintf "prob=%g" p
    | Always -> "always"
  in
  let kind =
    match r.r_kind with
    | Device_hang s -> Printf.sprintf "hang=%g" s
    | k -> kind_name k
  in
  Printf.sprintf "%s %s %s %s %s" r.r_site ops trigger kind
    (persistence_name r.r_persistence)

let parse_op = function
  | "read" -> Ok Read
  | "write" -> Ok Write
  | "swap" -> Ok Swap
  | "xfer" | "transfer" -> Ok Transfer
  | s -> Error (Printf.sprintf "unknown op %S" s)

let parse_ops s =
  if s = "*" then Ok []
  else
    String.split_on_char ',' s
    |> List.fold_left
         (fun acc tok ->
           match (acc, parse_op tok) with
           | Error e, _ -> Error e
           | _, Error e -> Error e
           | Ok ops, Ok op -> Ok (op :: ops))
         (Ok [])
    |> Result.map List.rev

let float_of_string_res what s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "bad %s %S" what s)

let parse_trigger s =
  match String.index_opt s '=' with
  | None -> if s = "always" then Ok Always else Error (Printf.sprintf "unknown trigger %S" s)
  | Some i -> (
      let key = String.sub s 0 i and v = String.sub s (i + 1) (String.length s - i - 1) in
      match key with
      | "window" -> (
          match String.index_opt v '.' with
          | Some j when j + 1 < String.length v && v.[j + 1] = '.' ->
              let a = String.sub v 0 j
              and b = String.sub v (j + 2) (String.length v - j - 2) in
              Result.bind (float_of_string_res "window start" a) (fun t0 ->
                  Result.bind (float_of_string_res "window end" b) (fun t1 ->
                      if t1 <= t0 then Error (Printf.sprintf "empty window %S" v)
                      else Ok (Window (t0, t1))))
          | _ -> Error (Printf.sprintf "window needs T0..T1, got %S" v))
      | "op" -> (
          match int_of_string_opt v with
          | Some n when n >= 1 -> Ok (Op_count n)
          | _ -> Error (Printf.sprintf "op= needs a positive count, got %S" v))
      | "prob" ->
          Result.bind (float_of_string_res "probability" v) (fun p ->
              if p < 0.0 || p > 1.0 then Error (Printf.sprintf "prob %g outside [0,1]" p)
              else Ok (Probability p))
      | _ -> Error (Printf.sprintf "unknown trigger %S" s))

let parse_kind s =
  match s with
  | "media_error" -> Ok Media_error
  | "robot_jam" -> Ok Robot_jam
  | "bus_reset" -> Ok Bus_reset
  | _ ->
      if String.length s > 5 && String.sub s 0 5 = "hang=" then
        Result.bind
          (float_of_string_res "hang span" (String.sub s 5 (String.length s - 5)))
          (fun span ->
            if span < 0.0 then Error "negative hang span" else Ok (Device_hang span))
      else Error (Printf.sprintf "unknown fault kind %S" s)

let parse_persistence = function
  | "transient" -> Ok Transient
  | "permanent" -> Ok Permanent
  | s -> Error (Printf.sprintf "unknown persistence %S" s)

let parse text =
  let lines = String.split_on_char '\n' text in
  let strip line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    String.trim line
  in
  let seed = ref 1 in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | raw :: rest -> (
        let line = strip raw in
        if line = "" then go acc (lineno + 1) rest
        else if String.length line > 5 && String.sub line 0 5 = "seed=" then
          match int_of_string_opt (String.sub line 5 (String.length line - 5)) with
          | Some s ->
              seed := s;
              go acc (lineno + 1) rest
          | None -> Error (Printf.sprintf "line %d: bad seed" lineno)
        else
          let fields =
            String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
          in
          let err msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
          match fields with
          | [ site; ops; trigger; kind ] | [ site; ops; trigger; kind; _ ] -> (
              let persistence =
                match fields with
                | [ _; _; _; _; p ] -> parse_persistence p
                | _ -> Ok Transient
              in
              match (parse_ops ops, parse_trigger trigger, parse_kind kind, persistence)
              with
              | Ok r_ops, Ok r_trigger, Ok r_kind, Ok r_persistence ->
                  go
                    ({ r_site = site; r_ops; r_trigger; r_kind; r_persistence } :: acc)
                    (lineno + 1) rest
              | Error e, _, _, _ | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e
                ->
                  err e)
          | _ -> err "expected: SITE OPS TRIGGER KIND [PERSISTENCE]")
  in
  Result.map (fun rules -> plan ~seed:!seed rules) (go [] 1 lines)

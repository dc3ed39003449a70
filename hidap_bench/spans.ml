(* The benchmark's own spans, recorded around calls into the program's
   public entry points. Nothing inside the program is instrumented: when
   recording is off, [with_] is a plain call.

   Spans are kept in memory (name, start, end, parent) and written out
   as a Chrome trace when the benchmark ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at the root *)
  t0 : float;  (** seconds, monotonic clock *)
  mutable t1 : float;
}

let recording = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let now = Unix.gettimeofday

let with_ name f =
  if not !recording then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id = !next_id; name; parent; t0 = now (); t1 = nan } in
    incr next_id;
    stack := s.id :: !stack;
    let close () =
      s.t1 <- now ();
      stack := List.tl !stack;
      spans := s :: !spans
    in
    Fun.protect ~finally:close f
  end

let all () = List.rev !spans

let duration s = s.t1 -. s.t0

(* Total seconds over every span called [name]. *)
let total name =
  List.fold_left (fun a s -> if s.name = name then a +. duration s else a) 0.0 !spans

(* The smallest share, over the spans called [name], of a span's wall
   time that its direct children cover (1.0 when there is none). *)
let min_child_coverage name =
  List.fold_left
    (fun acc p ->
      if p.name <> name then acc
      else
        let covered =
          List.fold_left
            (fun a s -> if s.parent = p.id then a +. duration s else a)
            0.0 !spans
        in
        if duration p <= 0.0 then acc else Float.min acc (covered /. duration p))
    1.0 !spans

(* Chrome trace ("traceEvents" with complete events, microseconds). *)
let write_chrome path =
  match all () with
  | [] -> ()
  | first :: _ as l ->
    let base = List.fold_left (fun a s -> Float.min a s.t0) first.t0 l in
    let ev s =
      Obs.Jsonx.Obj
        [ ("name", Obs.Jsonx.String s.name); ("ph", Obs.Jsonx.String "X");
          ("pid", Obs.Jsonx.Int 1); ("tid", Obs.Jsonx.Int 1);
          ("ts", Obs.Jsonx.Float ((s.t0 -. base) *. 1e6));
          ("dur", Obs.Jsonx.Float (duration s *. 1e6));
          ("args",
           Obs.Jsonx.Obj [ ("id", Obs.Jsonx.Int s.id); ("parent", Obs.Jsonx.Int s.parent) ]) ]
    in
    Obs.Jsonx.write_file path (Obs.Jsonx.Obj [ ("traceEvents", Obs.Jsonx.List (List.map ev l)) ])

(* The batch workload (suite-place): each design goes
   HNL -> Hnl.Parser -> Netlist.Flat.elaborate -> Hidap.place
   -> Evalflow.measure, followed by the Guard.Audit legality check.

   The untraced pass calls [Hidap.place]. The traced pass replays its
   stages one by one through their public functions, with a span around
   each, and must produce byte-identical placements. *)

module Flat = Netlist.Flat

type kept = {
  flat : Flat.t;
  result : Hidap.result;
}

type outcome = {
  name : string;
  ok : bool;  (** no exception, no diagnostic error, audit clean *)
  error : string;
  wl_m : float;
  grc_pct : float;
  wns_pct : float;
  placement : string;  (** exact placement bytes (hex floats) *)
  job_s : float;  (** HNL read through audit *)
  cells : int;
  nets : int;
  seq_nodes : int;
  sa_moves : int;
  instances : int;
  kept : kept option;  (** inputs of the traced run's layer probes *)
}

let config ~jobs ws =
  { Hidap.Config.default with
    Hidap.Config.lambda = 0.5;
    lambda_sweep = [ 0.5 ];
    jobs;
    seed = Inputs.place_seed ws;
    faults = [];
    budgets = [] }

(* Every float as its exact hex image, so "identical" means bit for bit. *)
let placement_bytes (r : Hidap.result) =
  let b = Buffer.create 4096 in
  let rect (q : Geom.Rect.t) =
    Printf.bprintf b "%h %h %h %h" q.Geom.Rect.x q.Geom.Rect.y q.Geom.Rect.w q.Geom.Rect.h
  in
  rect r.Hidap.die;
  Buffer.add_char b '\n';
  List.iter
    (fun (p : Hidap.macro_placement) ->
      Printf.bprintf b "%d " p.Hidap.fid;
      rect p.Hidap.rect;
      Printf.bprintf b " %s\n" (Geom.Orientation.to_string p.Hidap.orient))
    r.Hidap.placements;
  Buffer.contents b

(* [Hidap.place] stage by stage, on the same [Util.Rng.split] sequence.
   Assumes a clean run (no degradation repair), which the audit and the
   identity check both verify. *)
let replay ~(config : Hidap.Config.t) flat =
  let die = Hidap.die_for flat ~config in
  let rng = Util.Rng.create config.Hidap.Config.seed in
  let tree = Spans.with_ "hier.tree_build" (fun () -> Hier.Tree.build flat) in
  let gseq =
    Spans.with_ "seqgraph.build" (fun () ->
        Seqgraph.build ~bit_threshold:config.Hidap.Config.bit_threshold flat)
  in
  let sgamma =
    Spans.with_ "shape_curves.generate" (fun () ->
        Hidap.Shape_curves.generate tree ~config ~rng:(Util.Rng.split rng))
  in
  let ports = Spans.with_ "port_plan.make" (fun () -> Hidap.Port_plan.make gseq ~die) in
  let fp =
    Spans.with_ "floorplan.run" (fun () ->
        Hidap.Floorplan.run ~tree ~gseq ~sgamma ~ports ~config ~rng:(Util.Rng.split rng)
          ~die ())
  in
  let flip =
    Spans.with_ "flipping.run" (fun () ->
        Hidap.Flipping.run ~tree ~gseq ~ports ~macros:fp.Hidap.Floorplan.placed_macros
          ~ht_rects:fp.Hidap.Floorplan.ht_rects ~die ~config)
  in
  let orient = Hashtbl.create 64 in
  List.iter (fun (fid, o) -> Hashtbl.replace orient fid o) flip.Hidap.Flipping.orientations;
  let placements =
    List.map
      (fun (fid, rect, base) ->
        let orient = Option.value (Hashtbl.find_opt orient fid) ~default:base in
        { Hidap.fid; rect; orient })
      fp.Hidap.Floorplan.placed_macros
  in
  { Hidap.die; placements; levels = fp.Hidap.Floorplan.levels;
    top = fp.Hidap.Floorplan.top; tree; gseq; ports;
    ht_rects = fp.Hidap.Floorplan.ht_rects; lambda = config.Hidap.Config.lambda;
    sa_moves = fp.Hidap.Floorplan.sa_moves_total;
    flip_gain = flip.Hidap.Flipping.gain }

(* Floorplan instances: the top one plus one per block holding two or
   more macros (those are recursed into). *)
let instances (r : Hidap.result) =
  match r.Hidap.top with
  | None -> 0
  | Some _ ->
    1
    + List.length
        (List.filter (fun (l : Hidap.Floorplan.level_info) -> l.Hidap.Floorplan.macro_count >= 2)
           r.Hidap.levels)

let cp_macros (r : Hidap.result) =
  List.map
    (fun (p : Hidap.macro_placement) ->
      { Cellplace.fid = p.Hidap.fid; rect = p.Hidap.rect; orient = p.Hidap.orient })
    r.Hidap.placements

let triples (r : Hidap.result) =
  List.map (fun (p : Hidap.macro_placement) -> (p.Hidap.fid, p.Hidap.rect, p.Hidap.orient))
    r.Hidap.placements

let failed_outcome name t0 error =
  { name; ok = false; error; wl_m = nan; grc_pct = nan; wns_pct = nan; placement = "";
    job_s = Unix.gettimeofday () -. t0; cells = 0; nets = 0; seq_nodes = 0; sa_moves = 0;
    instances = 0; kept = None }

let run_design ~traced ~keep ~config (d : Inputs.design) =
  let t0 = Unix.gettimeofday () in
  try
    let design =
      Spans.with_ "hnl.parse" (fun () -> Hnl.Parser.parse_string (Inputs.read_file d.Inputs.path))
    in
    match design with
    | Error e ->
      failed_outcome d.Inputs.name t0
        (Printf.sprintf "parse error %d:%d %s" e.Hnl.Parser.line e.Hnl.Parser.col
           e.Hnl.Parser.message)
    | Ok design ->
      let flat = Spans.with_ "netlist.elaborate" (fun () -> Flat.elaborate design) in
      let r = if traced then replay ~config flat else Hidap.place ~config flat in
      let m, _ =
        Spans.with_ "evalflow.measure" (fun () ->
            Evalflow.measure ~flat ~gseq:r.Hidap.gseq ~ports:r.Hidap.ports ~die:r.Hidap.die
              ~macros:(cp_macros r))
      in
      let audit =
        Spans.with_ "guard.audit" (fun () ->
            Guard.Audit.run ~flat ~die:r.Hidap.die ~placements:(triples r))
      in
      let ok = Guard.Audit.ok audit in
      { name = d.Inputs.name; ok;
        error = (if ok then "" else Format.asprintf "%a" Guard.Audit.pp_summary audit);
        wl_m = m.Evalflow.wl_m; grc_pct = m.Evalflow.grc_pct; wns_pct = m.Evalflow.wns_pct;
        placement = placement_bytes r; job_s = Unix.gettimeofday () -. t0;
        cells = Flat.cell_count flat; nets = flat.Flat.net_count;
        seq_nodes = Seqgraph.node_count r.Hidap.gseq; sa_moves = r.Hidap.sa_moves;
        instances = instances r;
        kept = (if keep then Some { flat; result = r } else None) }
  with
  | Guard.Diag.Fail diag -> failed_outcome d.Inputs.name t0 (Guard.Diag.to_string diag)
  | e -> failed_outcome d.Inputs.name t0 (Printexc.to_string e)

(* One pass over every design; returns the outcomes and the wall time. *)
let pass ~traced ~keep ~config designs =
  let t0 = Unix.gettimeofday () in
  let outs =
    Spans.with_ "pass" (fun () -> List.map (run_design ~traced ~keep ~config) designs)
  in
  (outs, Unix.gettimeofday () -. t0)

(* Gseq node positions as the evaluation pipeline derives them: macros
   and register arrays from the cell placement, ports from the plan. *)
let gseq_positions (r : Hidap.result) (cp : Cellplace.t) =
  let pos = Array.make (Seqgraph.node_count r.Hidap.gseq) (Geom.Rect.center r.Hidap.die) in
  Array.iteri
    (fun gid (nd : Seqgraph.node) ->
      match nd.Seqgraph.kind with
      | Seqgraph.Macro fid -> pos.(gid) <- cp.Cellplace.positions.(fid)
      | Seqgraph.Port _ ->
        Option.iter (fun p -> pos.(gid) <- p) (Hidap.Port_plan.gseq_pos r.Hidap.ports gid)
      | Seqgraph.Register [] -> ()
      | Seqgraph.Register members ->
        let k = float_of_int (List.length members) in
        let sum f = List.fold_left (fun a fid -> a +. f cp.Cellplace.positions.(fid)) 0.0 members in
        pos.(gid) <-
          Geom.Point.make (sum (fun p -> p.Geom.Point.x) /. k) (sum (fun p -> p.Geom.Point.y) /. k))
    r.Hidap.gseq.Seqgraph.nodes;
  pos

(* Evalflow.measure runs cell placement, congestion and timing inside
   one call; the probe times each of those layers on its own, on the
   same placement, after the traced pass. *)
let probe kept =
  Spans.with_ "probe" (fun () ->
      List.iter
        (fun { flat; result = r } ->
          let cp =
            Spans.with_ "cellplace.run" (fun () ->
                Cellplace.run ~flat ~macros:(cp_macros r)
                  ~port_pos:(fun fid -> Hidap.Port_plan.flat_pos r.Hidap.ports fid)
                  ~die:r.Hidap.die ())
          in
          let macros = List.map (fun (p : Hidap.macro_placement) -> p.Hidap.rect) r.Hidap.placements in
          ignore
            (Spans.with_ "congestion.estimate" (fun () ->
                 Congestion.estimate ~flat ~positions:cp.Cellplace.positions ~die:r.Hidap.die
                   ~macros ()));
          let pos = gseq_positions r cp in
          ignore
            (Spans.with_ "sta.analyze" (fun () ->
                 Sta.analyze ~gseq:r.Hidap.gseq ~node_pos:(fun g -> pos.(g)) ~die:r.Hidap.die ())))
        kept)

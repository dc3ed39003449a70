module H = Util.Histogram

(* Block-sparse flow storage. Only pairs with a block endpoint can
   carry flow (searches start from blocks only), so row [i < nb] spans
   every endpoint column while a fixed row spans the block columns
   alone; fixed-fixed pairs have no slot at all. Histograms are created
   on first use, so a pair that never receives flow costs one [None]. *)
type t = {
  nb : int;
  n_endpoints : int;
  bflow : H.t option array array;
  mflow : H.t option array array;
}

let make_flow ~nb ~n =
  Array.init n (fun i -> Array.make (if i < nb then n else nb) None)

(* The stored histogram of the directed pair (i, j), if any. *)
let find flow ~nb i j = if i < nb || j < nb then flow.(i).(j) else None

let add_flow flow i j ~bin ~weight =
  let h =
    match flow.(i).(j) with
    | Some h -> h
    | None ->
      let h = H.create () in
      flow.(i).(j) <- Some h;
      h
  in
  H.add h ~bin ~weight

(* Dijkstra by cumulative edge latency from a set of source Gseq nodes.
   [may_traverse v] controls which settled nodes are expanded;
   [on_reach ~node ~latency ~via_width] fires once per settled non-source
   node. Sources themselves are neither reported nor subject to the
   traversal predicate (the search leaves them unconditionally).
   [direction] selects forward (paths source -> x) or backward
   (paths x -> source) traversal. *)
let latency_search (g : Seqgraph.t) ~direction ~sources ~may_traverse ~on_reach =
  let n = Seqgraph.node_count g in
  let dist = Array.make n max_int in
  let via = Array.make n 0 in
  let heap = Util.Heap.create () in
  let is_source = Array.make n false in
  List.iter
    (fun s ->
      is_source.(s) <- true;
      dist.(s) <- 0;
      Util.Heap.push heap ~key:0.0 s)
    sources;
  let neighbors u =
    match direction with
    | `Fwd -> List.map (fun (e : Seqgraph.edge) -> (e.Seqgraph.dst, e)) (Seqgraph.succ_edges g u)
    | `Bwd -> List.map (fun (e : Seqgraph.edge) -> (e.Seqgraph.src, e)) (Seqgraph.pred_edges g u)
  in
  let expand u =
    List.iter
      (fun (v, (e : Seqgraph.edge)) ->
        let d = dist.(u) + e.Seqgraph.latency in
        if d < dist.(v) then begin
          dist.(v) <- d;
          via.(v) <- e.Seqgraph.width;
          Util.Heap.push heap ~key:(float_of_int d) v
        end)
      (neighbors u)
  in
  let settled = Array.make n false in
  let rec drain () =
    match Util.Heap.pop_min heap with
    | None -> ()
    | Some (_, u) ->
      if not settled.(u) then begin
        settled.(u) <- true;
        if is_source.(u) then expand u
        else begin
          on_reach ~node:u ~latency:dist.(u) ~via_width:via.(u);
          if may_traverse u then expand u
        end
      end;
      drain ()
  in
  drain ()

let build (g : Seqgraph.t) ~n_blocks ~block_of_node ~fixed =
  let nfixed = Array.length fixed in
  let n_endpoints = n_blocks + nfixed in
  (* Endpoint index of each Gseq node: block index, fixed index, or -1. *)
  let endpoint_of = Array.make (Seqgraph.node_count g) (-1) in
  Array.iteri
    (fun i nd ->
      let b = block_of_node i in
      if b >= 0 then endpoint_of.(i) <- b
      else ignore nd)
    g.Seqgraph.nodes;
  Array.iteri
    (fun fi v ->
      assert (block_of_node v < 0);
      endpoint_of.(v) <- n_blocks + fi)
    fixed;
  let bflow = make_flow ~nb:n_blocks ~n:n_endpoints in
  let mflow = make_flow ~nb:n_blocks ~n:n_endpoints in
  (* Component lists per endpoint. *)
  let members = Array.make n_endpoints [] in
  Array.iteri
    (fun v nd ->
      ignore nd;
      let e = endpoint_of.(v) in
      if e >= 0 then members.(e) <- v :: members.(e))
    g.Seqgraph.nodes;
  let is_macro v = Seqgraph.is_macro_node g.Seqgraph.nodes.(v) in
  let is_port v = Seqgraph.is_port_node g.Seqgraph.nodes.(v) in
  (* Searches run only from block endpoints: the layout cost only uses
     pairs with at least one movable block, so fixed-fixed flow is never
     needed. Forward search from block i fills flow.(i).(j); backward
     search fills flow.(j).(i) for fixed j (block-block pairs are covered
     by the forward searches alone). *)
  let record flow ~from_block:i ~direction ~node ~latency ~via_width =
    let j = endpoint_of.(node) in
    if j >= 0 && j <> i then begin
      match direction with
      | `Fwd -> add_flow flow i j ~bin:latency ~weight:(float_of_int via_width)
      | `Bwd ->
        if j >= n_blocks then
          add_flow flow j i ~bin:latency ~weight:(float_of_int via_width)
    end
  in
  (* Block flow: traverse only glue registers (no endpoint membership,
     not macros). *)
  let glue v = endpoint_of.(v) < 0 && not (is_macro v) in
  for i = 0 to n_blocks - 1 do
    let sources = members.(i) in
    if sources <> [] then
      List.iter
        (fun direction ->
          latency_search g ~direction ~sources ~may_traverse:glue
            ~on_reach:(fun ~node ~latency ~via_width ->
              record bflow ~from_block:i ~direction ~node ~latency ~via_width))
        [ `Fwd; `Bwd ]
  done;
  (* Macro flow: sources are the macros (and ports) of the endpoint;
     traversal is allowed through any register; endpoints are macros and
     ports of other endpoints. *)
  let seq_register v = (not (is_macro v)) && not (is_port v) in
  for i = 0 to n_blocks - 1 do
    let sources = List.filter (fun v -> is_macro v || is_port v) members.(i) in
    if sources <> [] then
      List.iter
        (fun direction ->
          latency_search g ~direction ~sources ~may_traverse:seq_register
            ~on_reach:(fun ~node ~latency ~via_width ->
              if is_macro node || is_port node then
                record mflow ~from_block:i ~direction ~node ~latency ~via_width))
        [ `Fwd; `Bwd ]
  done;
  { nb = n_blocks; n_endpoints; bflow; mflow }

let endpoint_count t = t.n_endpoints

let n_blocks t = t.nb

(* A fresh empty histogram for a pair without stored flow, so callers
   never share (or mutate) one another's. *)
let flow_of flow t i j =
  match find flow ~nb:t.nb i j with Some h -> h | None -> H.create ()

let block_flow t i j = flow_of t.bflow t i j

let macro_flow t i j = flow_of t.mflow t i j

let score_of flow ~nb ~k i j =
  match find flow ~nb i j with None -> 0.0 | Some h -> H.score h ~k

(* Only block rows and block columns can be non-zero, so the scores are
   kept as [nb] rows over every endpoint column: [s.(i).(j)] for a block
   [i] holds the symmetric pair score of (i, j), and the mirror of a
   fixed column [j] is the same entry. Every other matrix entry is
   exactly 0.0, which is what the dense computation produced for it:
   an empty pair scores 0.0, 0.0 never raises a maximum of non-negative
   scores, [0.0 /. mx] is 0.0 and [lambda *. 0.0 +. (1 - lambda) *. 0.0]
   is 0.0. *)
let affinity_matrix t ~lambda ~k ?(normalize = true) () =
  assert (lambda >= 0.0 && lambda <= 1.0 && k >= 0);
  let n = t.n_endpoints and nb = t.nb in
  let scores flow =
    let m = Array.make_matrix nb n 0.0 in
    for i = 0 to nb - 1 do
      for j = i + 1 to n - 1 do
        let s = score_of flow ~nb ~k i j +. score_of flow ~nb ~k j i in
        m.(i).(j) <- s;
        if j < nb then m.(j).(i) <- s
      done
    done;
    m
  in
  let norm m =
    let mx = Array.fold_left (fun acc row -> Array.fold_left max acc row) 0.0 m in
    if normalize && mx > 0.0 then Array.map (Array.map (fun x -> x /. mx)) m else m
  in
  let sb = norm (scores t.bflow) and sm = norm (scores t.mflow) in
  let out = Array.make_matrix n n 0.0 in
  for i = 0 to nb - 1 do
    for j = 0 to n - 1 do
      let a = (lambda *. sb.(i).(j)) +. ((1.0 -. lambda) *. sm.(i).(j)) in
      out.(i).(j) <- a;
      if j >= nb then out.(j).(i) <- a
    done
  done;
  out

let edge_count t =
  let nb = t.nb in
  let empty flow i j =
    match find flow ~nb i j with None -> true | Some h -> H.is_empty h
  in
  let c = ref 0 in
  for i = 0 to nb - 1 do
    for j = i + 1 to t.n_endpoints - 1 do
      if not (empty t.bflow i j && empty t.bflow j i && empty t.mflow i j
              && empty t.mflow j i)
      then incr c
    done
  done;
  !c

let pp_summary ppf t =
  Format.fprintf ppf "Gdf: %d endpoints (%d blocks), %d edges" t.n_endpoints t.nb
    (edge_count t)

(* Tests for dataflow inference: block flow, macro flow, latency
   histograms and the affinity matrix (paper §IV-D). *)

module D = Netlist.Design
module Flat = Netlist.Flat
module Gdf = Dataflow.Gdf
module H = Util.Histogram

let bits prefix w = List.init w (fun i -> Printf.sprintf "%s_%d" prefix i)

(* Two macro blocks A and B, connected A -> glue regs (2 stages) -> B.
   Same topology as the paper's Fig 7 example. *)
let dual_block_design ~width ~glue_stages =
  let blockm name =
    let cells =
      D.cell ~name:"mem" ~kind:(D.make_macro ~w:20.0 ~h:10.0) ~ins:(bits "in" width)
        ~outs:(bits "q" width) ()
      :: List.init width (fun i ->
             D.cell ~name:(Printf.sprintf "ro_%d" i) ~kind:D.Flop
               ~ins:[ Printf.sprintf "q_%d" i ]
               ~outs:[ Printf.sprintf "out_%d" i ] ())
    in
    let ports =
      List.map (fun n -> D.port ~name:n ~dir:D.Input) (bits "in" width)
      @ List.map (fun n -> D.port ~name:n ~dir:D.Output) (bits "out" width)
    in
    D.module_def ~name ~ports ~cells ()
  in
  let stage k src =
    List.init width (fun i ->
        D.cell ~name:(Printf.sprintf "g%d_%d" k i) ~kind:D.Flop
          ~ins:[ Printf.sprintf "%s_%d" src i ]
          ~outs:[ Printf.sprintf "g%dq_%d" k i ] ())
  in
  let glue =
    List.concat
      (List.init glue_stages (fun k ->
           stage k (if k = 0 then "aout" else Printf.sprintf "g%dq" (k - 1))))
  in
  let last = if glue_stages = 0 then "aout" else Printf.sprintf "g%dq" (glue_stages - 1) in
  let top =
    D.module_def ~name:"top"
      ~ports:
        (List.map (fun n -> D.port ~name:n ~dir:D.Input) (bits "pin" width)
        @ List.map (fun n -> D.port ~name:n ~dir:D.Output) (bits "pout" width))
      ~cells:glue
      ~insts:
        [ D.inst ~name:"ba" ~module_:"blk"
            ~bindings:
              (List.map2 (fun f a -> (f, a)) (bits "in" width) (bits "pin" width)
              @ List.map2 (fun f a -> (f, a)) (bits "out" width) (bits "aout" width));
          D.inst ~name:"bb" ~module_:"blk"
            ~bindings:
              (List.map2 (fun f a -> (f, a)) (bits "in" width) (bits last width)
              @ List.map2 (fun f a -> (f, a)) (bits "out" width) (bits "pout" width)) ]
      ()
  in
  D.design ~top:"top" ~modules:[ top; blockm "blk" ]

let build_gdf ~width ~glue_stages =
  let flat = Flat.elaborate (dual_block_design ~width ~glue_stages) in
  let gseq = Seqgraph.build flat in
  let scope_block = Hashtbl.create 4 in
  Array.iter
    (fun (s : Flat.scope) ->
      if s.Flat.spath = "ba" then Hashtbl.replace scope_block s.Flat.sid 0;
      if s.Flat.spath = "bb" then Hashtbl.replace scope_block s.Flat.sid 1)
    flat.Flat.scopes;
  let block_of_node gid =
    let nd = gseq.Seqgraph.nodes.(gid) in
    if Seqgraph.is_port_node nd then -1
    else
      match Hashtbl.find_opt scope_block nd.Seqgraph.scope with
      | Some b -> b
      | None -> -1
  in
  let fixed =
    Array.of_list
      (List.filter_map
         (fun (nd : Seqgraph.node) ->
           if Seqgraph.is_port_node nd then Some nd.Seqgraph.id else None)
         (Array.to_list gseq.Seqgraph.nodes))
  in
  (gseq, Gdf.build gseq ~n_blocks:2 ~block_of_node ~fixed)

let test_block_flow_latency () =
  let _, gdf = build_gdf ~width:8 ~glue_stages:2 in
  let h = Gdf.block_flow gdf 0 1 in
  (* A's output reg -> g0 -> g1 -> B's macro: 3 sequential hops *)
  Alcotest.(check (float 1e-9)) "8 bits at latency 3" 8.0 (H.get h 3);
  Alcotest.(check (float 1e-9)) "nothing at latency 1" 0.0 (H.get h 1)

let test_macro_flow_latency () =
  let _, gdf = build_gdf ~width:8 ~glue_stages:2 in
  let h = Gdf.macro_flow gdf 0 1 in
  (* macro A -> ro -> g0 -> g1 -> macro B: 4 hops *)
  Alcotest.(check (float 1e-9)) "8 bits at latency 4" 8.0 (H.get h 4)

let test_flow_direction () =
  let _, gdf = build_gdf ~width:8 ~glue_stages:2 in
  Alcotest.(check bool) "no reverse block flow" true (H.is_empty (Gdf.block_flow gdf 1 0));
  Alcotest.(check bool) "no reverse macro flow" true (H.is_empty (Gdf.macro_flow gdf 1 0))

let test_latency_grows_with_glue () =
  let _, g1 = build_gdf ~width:4 ~glue_stages:1 in
  let _, g3 = build_gdf ~width:4 ~glue_stages:3 in
  Alcotest.(check int) "short path" 2 (H.max_bin (Gdf.block_flow g1 0 1));
  Alcotest.(check int) "longer path" 4 (H.max_bin (Gdf.block_flow g3 0 1))

let test_affinity_matrix_properties () =
  let _, gdf = build_gdf ~width:8 ~glue_stages:2 in
  let m = Gdf.affinity_matrix gdf ~lambda:0.5 ~k:2 () in
  let n = Gdf.endpoint_count gdf in
  Alcotest.(check int) "matrix size" n (Array.length m);
  for i = 0 to n - 1 do
    Alcotest.(check (float 1e-12)) "zero diagonal" 0.0 m.(i).(i);
    for j = 0 to n - 1 do
      Alcotest.(check (float 1e-12)) "symmetric" m.(i).(j) m.(j).(i);
      Alcotest.(check bool) "normalized range" true (m.(i).(j) >= 0.0 && m.(i).(j) <= 1.0)
    done
  done

let test_affinity_lambda_extremes () =
  let _, gdf = build_gdf ~width:8 ~glue_stages:2 in
  let mb = Gdf.affinity_matrix gdf ~lambda:1.0 ~k:1 ~normalize:false () in
  let mm = Gdf.affinity_matrix gdf ~lambda:0.0 ~k:1 ~normalize:false () in
  (* block flow: 8 bits / 3; macro flow: 8 bits / 4 *)
  Alcotest.(check (float 1e-9)) "block-only score" (8.0 /. 3.0) mb.(0).(1);
  Alcotest.(check (float 1e-9)) "macro-only score" (8.0 /. 4.0) mm.(0).(1)

let test_affinity_k_decay () =
  let _, gdf = build_gdf ~width:8 ~glue_stages:2 in
  let at k = (Gdf.affinity_matrix gdf ~lambda:0.5 ~k ~normalize:false ()).(0).(1) in
  Alcotest.(check bool) "higher k lowers multi-cycle affinity" true (at 0 > at 1 && at 1 > at 2)

let test_block_port_flow () =
  let _, gdf = build_gdf ~width:8 ~glue_stages:1 in
  (* endpoint 2.. are ports; A reads pin (input port array) *)
  let n = Gdf.endpoint_count gdf in
  let found = ref false in
  for j = 2 to n - 1 do
    if not (H.is_empty (Gdf.block_flow gdf j 0)) then found := true
  done;
  Alcotest.(check bool) "some port flows into block A" true !found

let test_edge_count () =
  let _, gdf = build_gdf ~width:8 ~glue_stages:2 in
  Alcotest.(check bool) "some Gdf edges" true (Gdf.edge_count gdf > 0);
  Alcotest.(check int) "two blocks" 2 (Gdf.n_blocks gdf)

let test_no_block_through_block () =
  (* block flow must not traverse another block: chain A -> B -> C with
     direct register hops means A..C block flow only via B's components,
     which are not glue, so A->C block flow is empty *)
  let width = 4 in
  let blockm name =
    D.module_def ~name
      ~ports:
        (List.map (fun n -> D.port ~name:n ~dir:D.Input) (bits "in" width)
        @ List.map (fun n -> D.port ~name:n ~dir:D.Output) (bits "out" width))
      ~cells:
        (List.init width (fun i ->
             D.cell ~name:(Printf.sprintf "r_%d" i) ~kind:D.Flop
               ~ins:[ Printf.sprintf "in_%d" i ]
               ~outs:[ Printf.sprintf "out_%d" i ] ()))
      ()
  in
  let inst name inn out =
    D.inst ~name ~module_:"blk"
      ~bindings:
        (List.map2 (fun f a -> (f, a)) (bits "in" width) (bits inn width)
        @ List.map2 (fun f a -> (f, a)) (bits "out" width) (bits out width))
  in
  let top =
    D.module_def ~name:"top"
      ~ports:(List.map (fun n -> D.port ~name:n ~dir:D.Input) (bits "x" width))
      ~insts:[ inst "ba" "x" "ab"; inst "bb" "ab" "bc"; inst "bc_i" "bc" "cd" ]
      ()
  in
  let d = D.design ~top:"top" ~modules:[ top; blockm "blk" ] in
  let flat = Flat.elaborate d in
  let gseq = Seqgraph.build flat in
  let scope_block = Hashtbl.create 4 in
  Array.iter
    (fun (s : Flat.scope) ->
      List.iteri
        (fun i p -> if s.Flat.spath = p then Hashtbl.replace scope_block s.Flat.sid i)
        [ "ba"; "bb"; "bc_i" ])
    flat.Flat.scopes;
  let block_of_node gid =
    let nd = gseq.Seqgraph.nodes.(gid) in
    if Seqgraph.is_port_node nd then -1
    else
      match Hashtbl.find_opt scope_block nd.Seqgraph.scope with
      | Some b -> b
      | None -> -1
  in
  let gdf = Gdf.build gseq ~n_blocks:3 ~block_of_node ~fixed:[||] in
  Alcotest.(check bool) "A -> B direct" false (H.is_empty (Gdf.block_flow gdf 0 1));
  Alcotest.(check bool) "A -> C blocked by B" true (H.is_empty (Gdf.block_flow gdf 0 2))

(* ---- block-sparse storage against the dense computation ------------- *)

(* A random Gseq: macros, registers and ports joined by random edges of
   random width and latency. Every non-port node may belong to a block;
   fixed endpoints are all ports plus the macros outside every block. *)
let random_gdf seed =
  let rng = Util.Rng.create seed in
  let n = 3 + Util.Rng.int rng 40 in
  let nodes =
    Array.init n (fun id ->
        let kind =
          match Util.Rng.int rng 4 with
          | 0 -> Seqgraph.Macro id
          | 1 -> Seqgraph.Port [ id ]
          | _ -> Seqgraph.Register [ id ]
        in
        { Seqgraph.id; kind; name = Printf.sprintf "n%d" id; scope = 0;
          bits = 1 + Util.Rng.int rng 32 })
  in
  let edges =
    Array.init (Util.Rng.int rng (3 * n)) (fun _ ->
        { Seqgraph.src = Util.Rng.int rng n;
          dst = Util.Rng.int rng n;
          width = 1 + Util.Rng.int rng 64;
          latency = Util.Rng.int rng 4 })
  in
  let out_edges = Array.make n [] and in_edges = Array.make n [] in
  Array.iteri
    (fun ei (e : Seqgraph.edge) ->
      out_edges.(e.Seqgraph.src) <- ei :: out_edges.(e.Seqgraph.src);
      in_edges.(e.Seqgraph.dst) <- ei :: in_edges.(e.Seqgraph.dst))
    edges;
  let g = { Seqgraph.nodes; edges; out_edges; in_edges; of_flat = [||] } in
  let n_blocks = 1 + Util.Rng.int rng 5 in
  let block =
    Array.map
      (fun nd ->
        if Seqgraph.is_port_node nd || Util.Rng.int rng 3 = 0 then -1
        else Util.Rng.int rng n_blocks)
      nodes
  in
  let fixed =
    Array.of_list
      (List.filter
         (fun v ->
           block.(v) < 0
           && (Seqgraph.is_port_node nodes.(v) || Seqgraph.is_macro_node nodes.(v)))
         (List.init n Fun.id))
  in
  Gdf.build g ~n_blocks ~block_of_node:(fun v -> block.(v)) ~fixed

(* The dense affinity computation the block-sparse one replaced: score,
   normalize and blend every endpoint pair through the public flows. *)
let dense_affinity gdf ~lambda ~k ~normalize =
  let n = Gdf.endpoint_count gdf in
  let scores flow =
    let m = Array.make_matrix n n 0.0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let s = H.score (flow gdf i j) ~k +. H.score (flow gdf j i) ~k in
        m.(i).(j) <- s;
        m.(j).(i) <- s
      done
    done;
    m
  in
  let norm m =
    let mx = Array.fold_left (fun acc row -> Array.fold_left max acc row) 0.0 m in
    if normalize && mx > 0.0 then Array.map (Array.map (fun x -> x /. mx)) m else m
  in
  let sb = norm (scores Gdf.block_flow) and sm = norm (scores Gdf.macro_flow) in
  Array.init n (fun i ->
      Array.init n (fun j -> (lambda *. sb.(i).(j)) +. ((1.0 -. lambda) *. sm.(i).(j))))

let dense_edge_count gdf =
  let n = Gdf.endpoint_count gdf in
  let c = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (List.for_all H.is_empty
                [ Gdf.block_flow gdf i j; Gdf.block_flow gdf j i;
                  Gdf.macro_flow gdf i j; Gdf.macro_flow gdf j i ])
      then incr c
    done
  done;
  !c

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let sparse_affinity_is_dense =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"block-sparse affinity = dense reference, bitwise"
       (QCheck.int_range 0 1_000_000)
       (fun seed ->
         let gdf = random_gdf seed in
         Gdf.edge_count gdf = dense_edge_count gdf
         && List.for_all
              (fun (lambda, k, normalize) ->
                let m = Gdf.affinity_matrix gdf ~lambda ~k ~normalize () in
                let d = dense_affinity gdf ~lambda ~k ~normalize in
                Array.for_all2 (Array.for_all2 bits_equal) m d)
              [ (0.5, 2, true); (0.0, 1, true); (1.0, 0, false); (0.3, 2, false) ]))

(* Searches start from blocks only, so a pair of fixed endpoints never
   carries flow in either view. *)
let fixed_pairs_are_empty =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name:"fixed-fixed block and macro flow are empty"
       (QCheck.int_range 0 1_000_000)
       (fun seed ->
         let gdf = random_gdf seed in
         let nb = Gdf.n_blocks gdf and n = Gdf.endpoint_count gdf in
         let ok = ref true in
         for i = nb to n - 1 do
           for j = nb to n - 1 do
             if not (H.is_empty (Gdf.block_flow gdf i j)
                     && H.is_empty (Gdf.macro_flow gdf i j))
             then ok := false
           done
         done;
         !ok))

let suite =
  [ ( "dataflow.gdf",
      [ Alcotest.test_case "block flow latency" `Quick test_block_flow_latency;
        Alcotest.test_case "macro flow latency" `Quick test_macro_flow_latency;
        Alcotest.test_case "flow direction" `Quick test_flow_direction;
        Alcotest.test_case "latency grows with glue" `Quick test_latency_grows_with_glue;
        Alcotest.test_case "affinity matrix properties" `Quick
          test_affinity_matrix_properties;
        Alcotest.test_case "lambda extremes" `Quick test_affinity_lambda_extremes;
        Alcotest.test_case "k decay" `Quick test_affinity_k_decay;
        Alcotest.test_case "port flow" `Quick test_block_port_flow;
        Alcotest.test_case "edge count" `Quick test_edge_count;
        Alcotest.test_case "blocks are opaque to block flow" `Quick
          test_no_block_through_block;
        sparse_affinity_is_dense; fixed_pairs_are_empty ] ) ]

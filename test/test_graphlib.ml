(* Tests for the graph substrate, including the multi-source BFS at the
   heart of target-area assignment. *)

module G = Graphlib.Digraph
module Tr = Graphlib.Traversal

let qtest ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* chain 0 -> 1 -> 2 -> ... -> n-1 *)
let chain n =
  let g = G.create n in
  for i = 0 to n - 2 do
    G.add_edge g i (i + 1)
  done;
  g

let test_digraph_basic () =
  let g = G.create 3 in
  G.add_edge g 0 1;
  G.add_edge g 0 2;
  G.add_edge g 1 2;
  Alcotest.(check int) "nodes" 3 (G.node_count g);
  Alcotest.(check int) "edges" 3 (G.edge_count g);
  Alcotest.(check (list int)) "succ 0" [ 1; 2 ] (G.succ g 0);
  Alcotest.(check (list int)) "pred 2" [ 0; 1 ] (G.pred g 2);
  Alcotest.(check int) "out degree" 2 (G.out_degree g 0);
  Alcotest.(check int) "in degree" 2 (G.in_degree g 2);
  Alcotest.(check (list int)) "no succ" [] (G.succ g 2)

let test_digraph_parallel_edges () =
  let g = G.create 2 in
  G.add_edge g 0 1;
  G.add_edge g 0 1;
  Alcotest.(check int) "parallel edges kept" 2 (G.edge_count g);
  Alcotest.(check (list int)) "succ twice" [ 1; 1 ] (G.succ g 0)

let test_transpose () =
  let g = chain 4 in
  let t = G.transpose g in
  Alcotest.(check int) "edge count preserved" (G.edge_count g) (G.edge_count t);
  Alcotest.(check (list int)) "reversed edge" [ 0 ] (G.succ t 1);
  Alcotest.(check (list int)) "reversed pred" [ 1 ] (G.pred t 0)

let test_map_nodes () =
  let g = chain 5 in
  let sub, old_of_new, new_of_old = G.map_nodes g ~keep:(fun v -> v <> 2) in
  Alcotest.(check int) "kept nodes" 4 (G.node_count sub);
  Alcotest.(check int) "dropped marker" (-1) new_of_old.(2);
  Alcotest.(check int) "edges through dropped vanish" 2 (G.edge_count sub);
  Alcotest.(check int) "old id recovered" 3 old_of_new.(new_of_old.(3))

let test_bfs_distances () =
  let g = chain 5 in
  let d = Tr.distances_from g ~sources:[ 0 ] in
  Alcotest.(check (array int)) "chain distances" [| 0; 1; 2; 3; 4 |] d;
  let d2 = Tr.distances_from g ~sources:[ 2 ] in
  Alcotest.(check int) "unreachable" (-1) d2.(0);
  Alcotest.(check int) "forward only" 2 d2.(4)

let test_bfs_multi_source () =
  let g = chain 5 in
  let d = Tr.distances_from g ~sources:[ 0; 3 ] in
  Alcotest.(check (array int)) "two sources" [| 0; 1; 2; 0; 1 |] d

let test_bfs_expand_gate () =
  let g = chain 4 in
  (* do not expand past node 1 *)
  let seen = ref [] in
  Tr.bfs_layers g ~sources:[ 0 ] ~direction:`Fwd
    ~visit:(fun ~node ~dist:_ ~parent:_ -> seen := node :: !seen)
    ~expand:(fun v -> v <> 1)
    ();
  Alcotest.(check (list int)) "stopped at gate" [ 0; 1 ] (List.rev !seen)

let test_bfs_backward () =
  let g = chain 4 in
  let seen = ref [] in
  Tr.bfs_layers g ~sources:[ 3 ] ~direction:`Bwd
    ~visit:(fun ~node ~dist ~parent:_ -> seen := (node, dist) :: !seen)
    ();
  Alcotest.(check (list (pair int int))) "backward layers"
    [ (3, 0); (2, 1); (1, 2); (0, 3) ]
    (List.rev !seen)

let test_multi_source_nearest () =
  (* path 0 - 1 - 2 - 3 - 4 (directed edges forward, but the nearest
     search is undirected) with sources at 0 (label 7) and 4 (label 9) *)
  let g = chain 5 in
  let label = Tr.multi_source_nearest g ~sources:[ (0, 7); (4, 9) ] in
  Alcotest.(check int) "source keeps label" 7 label.(0);
  Alcotest.(check int) "near left" 7 label.(1);
  Alcotest.(check int) "near right" 9 label.(3);
  Alcotest.(check int) "other source" 9 label.(4)

let test_multi_source_nearest_undirected () =
  (* edges point away from node 2; both ends must still be labelled *)
  let g = G.create 3 in
  G.add_edge g 2 0;
  G.add_edge g 2 1;
  let label = Tr.multi_source_nearest g ~sources:[ (0, 1) ] in
  Alcotest.(check int) "reaches against edge direction" 1 label.(2);
  Alcotest.(check int) "reaches across" 1 label.(1)

let test_topological () =
  let g = G.create 4 in
  G.add_edge g 0 1;
  G.add_edge g 0 2;
  G.add_edge g 1 3;
  G.add_edge g 2 3;
  (match Tr.topological_order g with
  | None -> Alcotest.fail "expected topological order"
  | Some order ->
    let posn = Array.make 4 0 in
    Array.iteri (fun i v -> posn.(v) <- i) order;
    Alcotest.(check bool) "0 before 1" true (posn.(0) < posn.(1));
    Alcotest.(check bool) "1 before 3" true (posn.(1) < posn.(3));
    Alcotest.(check bool) "2 before 3" true (posn.(2) < posn.(3)));
  let cyc = G.create 2 in
  G.add_edge cyc 0 1;
  G.add_edge cyc 1 0;
  Alcotest.(check bool) "cycle detected" true (Tr.topological_order cyc = None)

let test_reachable () =
  let g = chain 4 in
  let r = Tr.reachable_set g ~sources:[ 1 ] in
  Alcotest.(check (array bool)) "reachable" [| false; true; true; true |] r

let test_components () =
  let g = G.create 5 in
  G.add_edge g 0 1;
  G.add_edge g 3 4;
  let label, n = Tr.weakly_connected_components g in
  Alcotest.(check int) "three components" 3 n;
  Alcotest.(check bool) "0 and 1 together" true (label.(0) = label.(1));
  Alcotest.(check bool) "0 and 2 apart" false (label.(0) = label.(2))

(* random DAG: edges only from smaller to bigger ids *)
let dag_arb =
  QCheck.(
    map
      (fun pairs ->
        List.filter_map
          (fun (a, b) ->
            let a = a mod 20 and b = b mod 20 in
            if a < b then Some (a, b) else if b < a then Some (b, a) else None)
          pairs)
      (list (pair (int_range 0 19) (int_range 0 19))))

let topo_respects_edges =
  qtest "topological order respects every DAG edge" dag_arb (fun edges ->
      let g = G.create 20 in
      List.iter (fun (a, b) -> G.add_edge g a b) edges;
      match Tr.topological_order g with
      | None -> false
      | Some order ->
        let posn = Array.make 20 0 in
        Array.iteri (fun i v -> posn.(v) <- i) order;
        List.for_all (fun (a, b) -> posn.(a) < posn.(b)) edges)

let bfs_dist_shortest =
  qtest "bfs distance <= any edge relaxation" dag_arb (fun edges ->
      let g = G.create 20 in
      List.iter (fun (a, b) -> G.add_edge g a b) edges;
      let d = Tr.distances_from g ~sources:[ 0 ] in
      List.for_all
        (fun (a, b) -> d.(a) < 0 || (d.(b) >= 0 && d.(b) <= d.(a) + 1))
        edges)

(* The target-area search stops once every glue cell is labelled; each
   target must still get the full search's label. Random graphs with
   random source labels and a random target set, some of them
   unreachable. *)
let nearest_early_exit_exact =
  qtest ~count:300 "nearest with targets = full search on every target"
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Util.Rng.create seed in
      let n = 2 + Util.Rng.int rng 60 in
      let g = G.create n in
      for _ = 1 to Util.Rng.int rng (2 * n) do
        G.add_edge g (Util.Rng.int rng n) (Util.Rng.int rng n)
      done;
      let sources =
        List.init (1 + Util.Rng.int rng 4) (fun _ ->
            (Util.Rng.int rng n, Util.Rng.int rng 5))
      in
      let targets = Array.init (Util.Rng.int rng n) (fun _ -> Util.Rng.int rng n) in
      let full = Tr.multi_source_nearest g ~sources in
      let early = Tr.multi_source_nearest ~targets g ~sources in
      Array.for_all (fun v -> early.(v) = full.(v)) targets)

let suite =
  [ ( "graphlib.digraph",
      [ Alcotest.test_case "basic" `Quick test_digraph_basic;
        Alcotest.test_case "parallel edges" `Quick test_digraph_parallel_edges;
        Alcotest.test_case "transpose" `Quick test_transpose;
        Alcotest.test_case "map_nodes" `Quick test_map_nodes ] );
    ( "graphlib.traversal",
      [ Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
        Alcotest.test_case "multi-source distances" `Quick test_bfs_multi_source;
        Alcotest.test_case "expand gate" `Quick test_bfs_expand_gate;
        Alcotest.test_case "backward" `Quick test_bfs_backward;
        Alcotest.test_case "multi-source nearest" `Quick test_multi_source_nearest;
        Alcotest.test_case "nearest is undirected" `Quick test_multi_source_nearest_undirected;
        Alcotest.test_case "topological" `Quick test_topological;
        Alcotest.test_case "reachable" `Quick test_reachable;
        Alcotest.test_case "components" `Quick test_components;
        topo_respects_edges; bfs_dist_shortest; nearest_early_exit_exact ] ) ]

(** Graph traversals.

    Multi-source BFS is the workhorse of the paper: target-area assignment
    runs it on Gnet (§IV-C, citing Then et al. [12]) and dataflow
    inference runs constrained variants on Gseq (§IV-D). *)

val bfs_layers :
  Digraph.t -> sources:int list -> direction:[ `Fwd | `Bwd ] ->
  visit:(node:int -> dist:int -> parent:int -> unit) ->
  ?expand:(int -> bool) -> unit -> unit
(** Breadth-first search from all [sources] at distance 0. [visit] is
    called exactly once per reached node (sources included, with
    [parent = -1]); the search continues through a node only when
    [expand node] is true (defaults to always). *)

val multi_source_nearest :
  ?targets:int array -> Digraph.t -> sources:(int * int) list -> int array
(** [multi_source_nearest g ~sources] labels every reachable node (in the
    undirected sense: both edge directions are followed) with the label of
    its nearest source, breaking ties by search order. [sources] is a list
    of [(node, label)]. Unreached nodes get label [-1]. This is the
    paper's glue-logic absorption search (Fig. 6).

    With [targets], the search stops once every target node is labelled.
    Each target gets exactly the label of the full search (labels are
    final when a node is first reached); other nodes may be left at
    [-1]. *)

val distances_from : Digraph.t -> sources:int list -> int array
(** Forward BFS distance from the source set; [-1] when unreachable. *)

val topological_order : Digraph.t -> int array option
(** Kahn topological order; [None] when the graph has a cycle. *)

val reachable_set : Digraph.t -> sources:int list -> bool array

val weakly_connected_components : Digraph.t -> int array * int
(** Component label per node, and the number of components. *)

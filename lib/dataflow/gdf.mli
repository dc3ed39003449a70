(** The dataflow graph Gdf and affinity matrix Maff (paper §II-B, §IV-D).

    Endpoints are the HCB blocks of the current floorplanning instance
    plus fixed elements (multi-bit ports and macros outside the subtree
    being floorplanned). For every ordered endpoint pair, two latency
    histograms are accumulated:

    - {e block flow}: shortest-latency paths between any components of
      the two endpoints, traversing only glue-logic registers (components
      belonging to no block);
    - {e macro flow}: shortest-latency paths between the macros (and
      ports) of the two endpoints, traversing any register.

    Histogram bins index path latency (sum of Gseq edge latencies) and
    heights accumulate connection bits. The affinity of a pair blends the
    two flows: [lambda * score(block) + (1 - lambda) * score(macro)]
    where [score h = sum_i bits_i / latency_i^k].

    {b Storage is block-sparse.} Searches start from blocks only, so a
    pair of two fixed endpoints never carries flow. Histograms exist
    only for pairs with a block endpoint (block rows over every column,
    fixed rows over block columns) and only once they receive flow;
    {!affinity_matrix} scores, normalizes and blends only block rows and
    columns, and every other entry is exactly 0.0. The results equal the
    dense computation over all endpoint pairs bit for bit
    ([test_dataflow.ml] keeps that dense reference). *)

type t

val build :
  Seqgraph.t ->
  n_blocks:int ->
  block_of_node:(int -> int) ->
  fixed:int array ->
  t
(** [block_of_node v] gives the block index of Gseq node [v]
    ([0 .. n_blocks-1]) or [-1] for glue / outside nodes. [fixed] lists
    Gseq node ids acting as fixed endpoints; they must map to [-1] in
    [block_of_node]. *)

val endpoint_count : t -> int
(** Blocks first, then fixed endpoints. *)

val n_blocks : t -> int

val block_flow : t -> int -> int -> Util.Histogram.t
(** Directed block-flow histogram between endpoint indices; a fresh
    empty histogram for a pair without flow (every fixed-fixed pair). *)

val macro_flow : t -> int -> int -> Util.Histogram.t

val affinity_matrix : t -> lambda:float -> k:int -> ?normalize:bool -> unit -> float array array
(** Symmetric affinity matrix over all endpoints:
    [M.(i).(j) = lambda * sb + (1 - lambda) * sm] where [sb]/[sm] are the
    summed (both directions) block/macro-flow scores. When [normalize]
    (default true) each flow matrix is scaled to a unit maximum first, so
    that [lambda] blends comparable magnitudes. Requires
    [0 <= lambda <= 1] and [k >= 0]. *)

val edge_count : t -> int
(** Number of endpoint pairs with non-empty flow in either direction
    (the |Edf| of Table I). *)

val pp_summary : Format.formatter -> t -> unit

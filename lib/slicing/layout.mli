(** Top-down area-budgeting layout of a slicing tree (paper §IV-E,
    Fig. 8).

    Unlike bottom-up shape-curve packing, the assigned dimensions are a
    budget, not a constraint: the layout always consumes exactly the
    rectangle it was given. At each internal node the rectangle is cut
    (vertically for [V], horizontally for [H]) proportionally to the
    subtree target areas; shape-curve and minimum-area requirements then
    shift the cut, and any shifted or unsatisfiable area is reported as a
    violation, graded by severity: target area [at] (mildest), minimum
    area [am], macro area (most severe). *)

type leaf = {
  lid : int;  (** operand index in the Polish expression *)
  curve : Shape.Curve.t;  (** macro shape curve; unconstrained if none *)
  area_min : float;  (** am: macros + standard cells *)
  area_target : float;  (** at: am plus absorbed glue area *)
}

type violations = {
  at_shift : float;  (** area moved away from the target-proportional cut *)
  am_deficit : float;  (** minimum area not satisfied *)
  macro_deficit : float;  (** macro area that does not fit its rectangle *)
}

type placement = {
  rects : (int * Geom.Rect.t) list;  (** leaf lid -> assigned rectangle *)
  viol : violations;
}

val no_violations : violations

val penalty : violations -> at_w:float -> am_w:float -> macro_w:float -> float
(** Weighted violation sum, used as the paper's multiplicative penalty
    term: [1. +. penalty ...] multiplies the wirelength cost. *)

val evaluate :
  ?per_leaf:violations array ->
  Polish.t ->
  leaves:leaf array ->
  budget:Geom.Rect.t ->
  placement
(** Lay the slicing tree out inside [budget]. [leaves] must cover exactly
    the operand indices of the expression. The returned rectangles
    partition the budget exactly (up to floating-point rounding).

    [per_leaf], when given, accumulates a per-leaf attribution of the
    violation total: slot [lid] (the array needs one per leaf) gains the
    share of [placement.viol] charged to that leaf. Leaf macro-fit
    deficits go to the leaf itself; each internal node's split
    violations go to its two subtrees (the exact per-side minimum-area
    addends, the target shift split evenly, the macro minima distributed
    by side) and a subtree's charge is spread over its leaves
    proportionally to target area (equal split when the subtree has no
    target area). The charges sum to the total only up to float
    rounding; consumers reconcile with an explicit residual (DESIGN.md
    §13). The accumulation never touches the placement's floats, which
    are bit-identical with and without it. *)

val tree_curve : Polish.t -> leaves:leaf array -> Shape.Curve.t
(** Bottom-up composition of the leaf curves along the tree — the shape
    curve of the whole arrangement. *)

(** {1 Evaluation internals}

    Shared with {!Inc}, the incremental evaluator, which must reproduce
    this module's floats bit for bit. *)

val leaf_table : leaf array -> leaf array
(** Dense lid -> leaf table: slot [lid] holds the leaf carrying that
    lid. The leaf lids must be exactly [0..n-1]; a duplicate or
    out-of-range lid raises a structured [bad-leaf-table] diagnostic
    ({!Guard.Diag.Fail}). Build it once per instance — it replaces the
    per-operand linear scan that made tree construction quadratic. *)

val leaf_of_table : leaf array -> int -> leaf
(** Table lookup with the same [bad-leaf-table] diagnostic for an
    operand index outside the table. *)

val max_curve_points : int
(** Pruning bound applied to every composed internal-node curve. *)

(** Scratch of one node's layout arithmetic. Every field is a float, so
    the record is stored flat and {!leaf_fit}/{!split_node} exchange
    their inputs and outputs through it without boxing a float: the
    incremental evaluator calls them on every re-placed node of every SA
    move. Fill the inputs, call the helper, and read the outputs before
    laying out the children (they reuse the record). *)
type work = {
  mutable w : float;  (** in: the node's rectangle width ... *)
  mutable h : float;  (** ... and height *)
  mutable at_a : float;  (** in ([split_node]): children's target areas ... *)
  mutable at_b : float;
  mutable am_a : float;  (** ... and minimum areas *)
  mutable am_b : float;
  mutable fit_def : float;  (** out ([leaf_fit]): the leaf's macro-fit deficit *)
  mutable mac_a : float;
      (** out: the first child's minimum extent along the cut axis *)
  mutable def_a : float;  (** out: its unavoidable macro deficit *)
  mutable mac_b : float;  (** out: the same for the second child *)
  mutable def_b : float;
  mutable s : float;  (** out: the first child's extent along the cut *)
  mutable frac : float;  (** out: [s] as a fraction of the extent, in \[0, 1\] *)
  mutable d_at : float;  (** out: the split's violation delta *)
  mutable d_am : float;
  mutable d_mac : float;
}

val work : unit -> work

val leaf_fit : work -> Shape.Curve.t -> unit
(** Macro-fit deficit of a leaf in a [w] x [h] rectangle: 0 when a
    curve point fits, else the area its least-area box lacks. *)

val split_node : work -> Polish.op -> Shape.Curve.t -> Shape.Curve.t -> unit
(** One internal node of a [w] x [h] rectangle cut by [op] over
    children with curves [ca]/[cb] and areas [at_a]/[at_b]/[am_a]/[am_b]:
    each child's minimum extent along the cut axis at the node's cross
    dimension (plus any unavoidable macro deficit), then the first
    child's extent — the target-area share, shifted for the minimum
    areas and the macro minima — and the violation delta of the shift. *)

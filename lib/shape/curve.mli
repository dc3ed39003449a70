(** Shape curves Γ (paper §II-D, Fig. 4b).

    A shape curve is a Pareto staircase of bounding boxes (w, h): the
    point set contains the minimal boxes able to hold some placement of
    the macros of a block; every box dominating a curve point also fits.
    The special {!unconstrained} curve (a block with no macros) fits in
    any box.

    Points are kept sorted by increasing width / decreasing height, and
    curves are pruned to a bounded number of points to keep compositions
    cheap. *)

type t = private {
  mutable len : int;  (** number of points; 0 is {!unconstrained} *)
  pts : float array;
      (** point [i < len] is [(pts.(2i), pts.(2i+1))]; read-only *)
}
(** The representation is exposed read-only so allocation-free loops
    (the slicing layout's per-node arithmetic) can scan points without
    boxing a float per access. *)

val unconstrained : t
(** No macro constraint: every box fits. *)

val of_points : (float * float) list -> t
(** Pareto-prunes the candidate list. Requires at least one point with
    positive dimensions. *)

val of_macro : w:float -> h:float -> ?rotate:bool -> unit -> t
(** A hard macro's curve: its footprint, plus the 90-degree rotation when
    [rotate] (default true) and the macro is not square. *)

val points : t -> (float * float) list
(** Pareto points, increasing width. Empty for {!unconstrained}. *)

val is_unconstrained : t -> bool

val eps : float
(** Tolerance of every fit test: a point fits a bound it exceeds by at
    most [eps]. *)

val fits : t -> w:float -> h:float -> bool
(** Can the block's macros be placed in a [w] x [h] box? *)

val min_height : t -> w:float -> float option
(** Least height h such that [fits ~w ~h]; [None] when even infinite
    height does not admit width [w]. [Some 0.] for {!unconstrained}. *)

val min_width : t -> h:float -> float option

val min_area_point : t -> (float * float) option
(** Curve point with the smallest area; [None] for {!unconstrained}. *)

val min_area_index : t -> int
(** Index of {!min_area_point} (the first point of least area). The
    curve must not be {!unconstrained}. *)

val min_area : t -> float
(** Area of {!min_area_point}; 0 for {!unconstrained}. *)

val compose_h : t -> t -> t
(** Horizontal juxtaposition (side by side): widths add, heights max. *)

val compose_v : t -> t -> t
(** Vertical stacking: heights add, widths max. *)

val compose_best : t -> t -> t
(** Pareto union of both compositions — the curve of the best slicing
    arrangement of the two sub-blocks. *)

val prune : max_points:int -> t -> t
(** Thin the staircase to at most [max_points] points, keeping the
    extremes and a spread of intermediate points. *)

val size : t -> int

(** {1 Buffers}

    Preallocated curves that compositions write into, so a hot loop can
    re-derive a curve without allocating (DESIGN.md section 14). *)

type buf

val buffer : capacity:int -> buf
(** An empty ({!unconstrained}) buffer able to hold [capacity] points. *)

val view : buf -> t
(** The buffer's current curve, without a copy: it changes with the
    next write to the buffer. *)

val compose_h_into : buf -> t -> t -> unit
(** [compose_h_into dst a b] writes {!compose_h}[ a b] into [dst]: the
    same points, bit for bit. Raises [Invalid_argument] when [dst]
    cannot hold [size a + size b - 1] points (or the constrained side's
    points, when the other is unconstrained). *)

val compose_v_into : buf -> t -> t -> unit
(** {!compose_v} into a buffer, as {!compose_h_into}. *)

val prune_in_place : max_points:int -> buf -> unit
(** {!prune} within the buffer: the same points, bit for bit. *)

val pp : Format.formatter -> t -> unit

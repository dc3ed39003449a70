(** Deterministic fork-join parallelism over OCaml domains.

    [map] distributes independent tasks over a small pool of freshly
    spawned domains (work-stealing over a shared atomic index; the
    calling domain participates) and returns the results in input
    order. The contract is that the observable outcome is {e identical}
    for every job count, including 1:

    - results come back in input order, so any reduction the caller
      performs is independent of scheduling;
    - the first exception {e by task index} (not by wall-clock) is
      re-raised with its backtrace;
    - telemetry is domain-safe and deterministic: each task runs with
      its own fresh {!Obs.Metrics} ambient registry and its own
      {!Obs.Span} recorder (each only when the respective sink is
      enabled), and the per-task collections are merged back into the
      caller's collectors in task order at the join point. Enabling telemetry never changes the
      tasks' trajectory, and the merged telemetry is the same for any
      job count.

    Nested [map] calls from inside a task run sequentially on the
    worker (still with per-task telemetry isolation), so a pool used at
    two levels of a flow cannot deadlock or oversubscribe the machine.

    Tasks must not share mutable state with each other; give each task
    its own scratch buffers and (pre-split) RNG stream. *)

type t

val default_jobs : unit -> int
(** The pool's default and the bound applied when no explicit job count
    is given: the [HIDAP_JOBS] environment variable when set to a
    positive integer (clamped to 64 — lets CI pin the whole test suite
    and bench gate to a job count), otherwise
    [Domain.recommended_domain_count ()]. *)

val create : ?jobs:int -> unit -> t
(** A pool descriptor. Without [jobs], the pool is bounded by
    {!default_jobs}. An explicit [jobs] is honored even beyond the
    recommended count (useful for exercising determinism on small
    machines), clamped to [1, 64]. The descriptor is cheap: domains are
    spawned per [map] call and joined before it returns. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f xs] applies [f] to every element of [xs], running up to
    [jobs t] tasks concurrently, and returns the results in input
    order. See the module description for the determinism contract. *)

(** {1 Pool utilization}

    Busy/idle/steal accounting, aggregated across every top-level
    [map] call since the last {!reset_pool_stats}. These are timing
    observations — inherently schedule-dependent — so they are
    surfaced here (and in the QoR record's perf section) rather than
    through {!Obs.Metrics}, whose exported registry is
    schedule-independent. Collection is always on; the cost is two
    monotonic clock reads per task. *)

type worker_stats = {
  tasks : int;  (** tasks claimed by this worker slot *)
  steals : int;
      (** tasks claimed by a spawned domain (slot > 0) — the shared
          work-stealing index serves the calling domain first, so
          every spawned-domain claim is a steal *)
  busy_us : float;  (** wall-time spent inside task bodies *)
}

type pool_stats = {
  workers : worker_stats array;
      (** slot 0 is the calling domain, 1.. the spawned domains;
          trimmed to the highest slot that ran a task *)
  wall_us : float;  (** accumulated pool-open wall time *)
  maps : int;  (** top-level [map] calls accounted *)
}
(** Idle time of a slot is [wall_us - busy_us]; pool utilization is
    [sum busy / (slots * wall_us)]. *)

val pool_stats : unit -> pool_stats

val reset_pool_stats : unit -> unit

(** Structured telemetry: counters, histograms and timing spans for the
    whole pipeline, designed for OCaml 5 domains.

    {2 Model}

    Metric {e handles} ({!counter}, {!histogram}) intern a name into a
    process-global slot table once, at module initialization.  Every
    write then goes to a {e domain-local} registry (one per domain,
    allocated lazily through [Domain.DLS]), so the hot path takes no
    locks and shares no cache lines across domains.  {!snapshot} merges
    all registries.

    {2 Determinism contract}

    Counter and histogram merging is a per-slot integer sum — a
    commutative, associative fold — so the aggregated {e value-metrics}
    of a run are independent of how work was spread over domains:
    [-j1] and [-j4] executions of the same fault-free workload produce
    identical counter and histogram sections (and {!to_json} renders
    them canonically, so the sections are byte-identical).  Wall-time
    spans are inherently nondeterministic and are reported in a separate
    section that comparisons strip.  Under chaos mode ([--faults]) a
    quarantined Prepare item may be rebuilt by several racing consumers,
    so build counters can differ across job counts — the contract is
    stated for fault-free runs.

    {2 Overhead}

    Instrumentation is deliberately coarse: hot loops (arena replay,
    packed scoring) carry no telemetry at all; counters are flushed once
    per run / per search call.  A disabled registry ({!set_enabled}
    [false]) short-circuits every operation on one atomic load. *)

(** {1 Recording} *)

type counter
type histogram

val counter : string -> counter
(** Intern (or look up) a counter slot.  Call at module initialization
    and keep the handle; interning takes the global lock. *)

val histogram : string -> histogram
(** Same, for a log-bucketed histogram of non-negative integers. *)

val incr : counter -> unit
val add : counter -> int -> unit
val observe : histogram -> int -> unit

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f ()] and records a completed span on the
    current domain (exceptions still record the span).  Spans nest;
    the recorded depth is the number of enclosing spans on the same
    domain. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Globally enable/disable recording (snapshotting still works). *)

val reset : unit -> unit
(** Zero every registry and restart the span epoch.  Only meaningful
    while no other domain is recording (tests, bench section breaks). *)

(** {1 Pure histogram cells (exposed for property tests)} *)

module Hist : sig
  type t = {
    count : int;
    sum : int;
    min_v : int;  (** [max_int] when empty *)
    max_v : int;  (** [min_int] when empty *)
    buckets : int array;  (** length {!n_buckets} *)
  }

  val n_buckets : int

  val bucket_of_value : int -> int
  (** Bucket 0 holds values [<= 0]; bucket [b >= 1] holds
      [2{^b-1} <= v < 2{^b}] (the last bucket also takes the overflow
      tail). *)

  val bucket_bounds : int -> int * int
  (** Inclusive [(lo, hi)] value range of a bucket. *)

  val empty : t
  val observe : t -> int -> t
  val merge : t -> t -> t
  val equal : t -> t -> bool
end

(** {1 Aggregation} *)

type span_record = {
  sp_name : string;
  sp_domain : int;  (** id of the recording domain *)
  sp_depth : int;  (** enclosing spans on that domain at entry *)
  sp_start_s : float;  (** seconds since the epoch ({!reset} time) *)
  sp_dur_s : float;
}

type snapshot

val snapshot : unit -> snapshot
(** Deterministic merge of every domain's registry: counters and
    histograms sum per slot and list in name order; spans concatenate
    and sort by (start, domain, name). *)

val counters : snapshot -> (string * int) list
val histograms : snapshot -> (string * Hist.t) list
val spans : snapshot -> span_record list
val counter_value : snapshot -> string -> int
(** 0 when the name was never registered. *)

(** {1 Export} *)

val schema_version : int

val to_json : snapshot -> Sjson.t
(** The versioned [metrics.json] document (schema in EXPERIMENTS.md):
    members [schema], [version], [counters], [histograms], [spans].
    Everything outside the [spans] member is deterministic (see the
    contract above). *)

val to_json_string : snapshot -> string

val strip_wall_time : Sjson.t -> Sjson.t
(** Drop the (wall-clock) [spans] member — what the [-j1] vs [-j4]
    equality check compares. *)

val to_text : snapshot -> string
(** Human-readable multi-line summary (counters, histograms, span
    aggregates). *)

val summary_lines : snapshot -> string list
(** The end-of-run summary block: one ["name = value"] line per nonzero
    counter, sorted.  The single place run/fault/cache accounting is
    reported from. *)

val to_chrome : snapshot -> string
(** Chrome [trace_events] JSON (load into [about://tracing] or
    [ui.perfetto.dev]): one complete ("ph":"X") event per span, one
    track per domain. *)

val write_file : path:string -> string -> unit
(** {!Durable.write_atomic}: parent directories are created, and a
    reader never sees a partial file. *)

(** In-production execution profiles (paper §IV, steps 1–2).

    A profile combines what Intel PT and LBR give the paper's offline
    analysis: per-static-branch execution / direction / baseline-predictor
    misprediction counts, plus, for the {e candidate} branches (those with
    enough mispredictions to be worth optimizing), a bounded set of
    execution samples.  Each sample captures the branch's raw 8-bit recent
    history, the 8-bit folded hash at every candidate history length, the
    resolved direction, and whether the baseline predictor was correct —
    everything Algorithm 1, ROMBF training and the BranchNet baseline
    consume. *)

type branch_stat = {
  mutable execs : int;
  mutable taken_cnt : int;
  mutable mispred : int;
}

type t

val lengths : t -> int array
(** The history-length series the hashes were collected at. *)

val n_lengths : t -> int

val total_instrs : t -> int
val total_branches : t -> int
val total_mispred : t -> int

val stat : t -> pc:int -> branch_stat option
val iter_stats : t -> f:(pc:int -> branch_stat -> unit) -> unit
val n_static_branches : t -> int

val mpki : t -> float
(** Baseline mispredictions per kilo-instruction over the profiled run. *)

val candidates : t -> int array
(** PCs that carry samples, sorted by decreasing misprediction count. *)

val n_samples : t -> pc:int -> int

val iter_samples :
  t ->
  pc:int ->
  f:
    (raw8:int ->
    raw56:int ->
    hash:(int -> int) ->
    taken:bool ->
    correct:bool ->
    unit) ->
  unit
(** [raw8]/[raw56] are the last 8 / 56 raw outcomes (newest in bit 0);
    [hash len_idx] reads the folded hash recorded for that series index.
    The callback must not retain [hash] beyond the call. *)

type raw_view = private {
  buf : Bytes.t;
  n : int;  (** number of sample records *)
  record_bytes : int;  (** stride between consecutive records in [buf] *)
  hash_off : int;
      (** record offset of the hash bytes; byte [hash_off + i] is the
          folded hash for series index [i] *)
  flags_off : int;
      (** record offset of the flags byte: bit 0 = taken, bit 1 =
          baseline predictor correct *)
}
(** Zero-copy window into one branch's packed sample records: record [r]
    spans [buf] bytes [r * record_bytes .. (r+1) * record_bytes - 1].
    Lets hot consumers decode just the fields they need instead of paying
    {!iter_samples}'s full per-record reconstruction.  The window aliases
    the profile's own buffer — treat it as read-only, and drop it before
    adding further samples for the same branch (growth may reallocate). *)

val raw_view : t -> pc:int -> raw_view option
(** [None] when the branch carries no samples. *)

(** {1 Collection} *)

val collect :
  ?max_candidates:int ->
  ?min_mispred:int ->
  ?max_samples:int ->
  ?chunk:int ->
  lengths:int array ->
  events:int ->
  make_source:(unit -> Branch.source) ->
  make_predictor:(unit -> pc:int -> taken:bool -> bool) ->
  unit ->
  t
(** Two-pass collection over [events] branch events: the source's events
    are packed into an {!Arena} and collected by {!collect_arena}.
    [make_source] and [make_predictor] must return {e fresh}
    deterministic instances on each call (the second pass replays the
    same trace against a fresh baseline predictor, standing in for a
    second production profiling window; a fresh deterministic predictor
    repeats the first pass's verdicts, so one instance is run once and
    its verdicts serve both passes).  The predictor closure returns
    whether its prediction was correct — the information LBR exposes.

    Defaults: [max_candidates] 2048, [min_mispred] 8, [max_samples] 512
    per branch, [chunk] 8. *)

val collect_arena :
  ?max_candidates:int ->
  ?min_mispred:int ->
  ?max_samples:int ->
  ?chunk:int ->
  lengths:int array ->
  events:int ->
  arena:Arena.t ->
  make_predictor:(unit -> pc:int -> taken:bool -> bool) ->
  unit ->
  t
(** Same two-pass collection replayed from a packed {!Arena}: the
    predictor's verdicts over the first [events] events feed
    {!collect_verdicts}.
    @raise Invalid_argument if [events] exceeds the arena's length. *)

val collect_verdicts :
  ?max_candidates:int ->
  ?min_mispred:int ->
  ?max_samples:int ->
  ?chunk:int ->
  lengths:int array ->
  events:int ->
  arena:Arena.t ->
  verdicts:Bytes.t ->
  unit ->
  t
(** The collection core under {!collect} and {!collect_arena}, for a
    baseline whose verdicts are already staged: byte [i] of [verdicts]
    is non-zero when the baseline predicted event [i] correctly.  Both
    passes walk the arena by index and count into per-branch arrays;
    nothing is allocated per event.
    @raise Invalid_argument if [events] exceeds the arena's length or
    [verdicts], if the chunk or length series is bad, or if the arena's
    blocks and pcs are not one-to-one (as every generated arena's are;
    a corrupt cache entry need not be), or its block ids lie far beyond
    its length. *)

(** {1 Merging (paper Fig. 18)} *)

val merge : t list -> t
(** Pool stats and samples of profiles collected from different inputs.
    All profiles must share the same length series.
    @raise Invalid_argument on an empty list or mismatched series. *)

(** {1 Direct construction (tests, synthetic profiles)} *)

val create_empty : ?chunk:int -> lengths:int array -> unit -> t

val record_event :
  t -> pc:int -> taken:bool -> correct:bool -> instrs:int -> unit
(** Account one dynamic branch into the aggregate statistics. *)

val restore_stat :
  t -> pc:int -> execs:int -> taken_cnt:int -> mispred:int -> unit
(** Set a branch's aggregate counters directly (deserialization). *)

val set_totals : t -> instrs:int -> branches:int -> mispred:int -> unit
(** Set the run-level totals directly (deserialization). *)

val add_sample :
  ?raw56:int ->
  t ->
  pc:int ->
  raw8:int ->
  hashes:int array ->
  taken:bool ->
  correct:bool ->
  unit
(** Append a sample for [pc]; [hashes] must have [n_lengths t] entries in
    \[0, 255\]. *)

(** Whisper's run-time prediction path (paper §IV, Fig. 10 step 3).

    Wraps a baseline dynamic predictor.  On every event the runner first
    "executes" the brhint instructions injected into the event's basic
    block (filling the hint buffer), then predicts the block's branch:

    - hint-buffer hit → predict with the hint (bias or Boolean formula
      over the hashed history at the hint's length) and {e spectate} the
      baseline, so it neither trains nor allocates for this branch;
    - miss → baseline predict + train.

    The hashed histories are the same folded registers the hardware
    already maintains for TAGE (§III-A), kept here in a mirror updated
    with every resolved outcome.

    This module is the {e compiled} implementation of that protocol: the
    injection plan is lowered once at {!create} into a CSR block→hints
    index ({!Inject.Packed}), a dense packed truth-table bank (bias
    hints folded in as constant tables), a sentinel-int hint buffer
    whose payloads are plan-entry indices, and folded-history registers
    for only the lengths the plan reads.  The per-event path performs no
    allocation and no hashing beyond the buffer probe.  {!Reference}
    retains the original interpretive implementation; the two must agree
    result-for-result and counter-for-counter on every trace — the
    differential tests and the replay bench assert exactly that. *)

type t

val create :
  Config.t -> baseline:Whisper_bpu.Predictor.t -> plan:Inject.t -> t
(** Compiles [plan] (CSR index, truth-table bank, fold slots) and
    allocates the run-time state.  O(plan size), amortized over the
    whole replay. *)

val exec : t -> Whisper_trace.Branch.event -> bool
(** Process one event end-to-end (hint execution, prediction, training,
    history update).  Returns whether the prediction was correct. *)

val exec_at : t -> block:int -> pc:int -> taken:bool -> bool
(** [exec] on unboxed event fields — never materializes a
    [Branch.event] record, and allocates nothing. *)

val decide : t -> block:int -> pc:int -> taken:bool -> int
(** The hint half of {!exec_at}: executes the block's brhints and
    returns the hinted direction (0 or 1), or [-1] when the baseline
    predicts the branch ({!Whisper_bpu.Predictor.exec_hybrid}).
    Advances the folded-history mirror and the counters; never touches
    the baseline. *)

val exec_arena : t -> arena:Whisper_trace.Arena.t -> int -> bool
(** [exec_arena t ~arena i] is {!exec_at} on the arena's [i]th event —
    the batched replay path wired through [Machine.run_arena], reading
    event fields straight out of the arena's packed columns. *)

val hinted_predictions : t -> int
(** Predictions served by hints (hint-buffer hits with a non-Dynamic
    bias). *)

val hinted_mispredictions : t -> int

val baseline_predictions : t -> int

val buffer : t -> Hint_buffer.t

val buffer_stats : t -> int * int * int
(** [(insertions, hits, misses)] of the hint buffer — same shape as
    {!Reference.buffer_stats} for differential comparison. *)

(** The original interpretive runtime, retained verbatim as the
    differential oracle: per-event [Inject.hints_at] Hashtbl lookups, a
    lazily filled byte truth-table cache, an option-returning [Lru] hint
    buffer, and folded updates over every configured length.  Must be
    observationally identical to the compiled path (same correctness
    verdicts, same counters, same buffer statistics); kept out of the
    replay hot path. *)
module Reference : sig
  type t

  val create :
    Config.t -> baseline:Whisper_bpu.Predictor.t -> plan:Inject.t -> t

  val exec : t -> Whisper_trace.Branch.event -> bool
  val exec_at : t -> block:int -> pc:int -> taken:bool -> bool
  val hinted_predictions : t -> int
  val hinted_mispredictions : t -> int
  val baseline_predictions : t -> int
  val buffer_stats : t -> int * int * int
end

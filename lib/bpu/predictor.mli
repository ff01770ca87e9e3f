(** Uniform interface over all branch direction predictors in the study.

    The simulation protocol is strict: for every dynamic branch the runner
    calls [predict ~pc] first and then exactly one of

    - [train ~pc ~taken] — full update (counters, allocation, history), or
    - [spectate ~pc ~taken] — history-only update.

    [spectate] models Whisper's run-time rule that hinted branches do not
    allocate or train predictor state, freeing capacity for the remaining
    branches (paper §IV, "Run-time hint usage"), while the global history
    must still advance with the branch's outcome. *)

type t = {
  name : string;
  predict : pc:int -> bool;
  train : pc:int -> taken:bool -> unit;
      (** must follow a [predict] call for the same branch *)
  spectate : pc:int -> taken:bool -> unit;
  storage_bits : int;  (** approximate hardware budget of the predictor *)
  is_oracle : bool;
      (** oracle predictors are always counted correct by runners *)
}

(** Staged arena kernels: the compiled counterpart of {!t} for the
    replay fast path.  Where {!t} is three closure-record fields invoked
    per event, a [Compiled.t] is handed to the machine once per run
    ({!Whisper_pipeline.Machine.run_arena_exec} with [Compiled fill]) and
    runs the whole predict→train protocol in its own monomorphic loop
    over the packed arena — direct known calls, no closure records, no
    per-event allocation.

    Contract: [fill ~arena ~n ~verdicts] must create a fresh predictor
    instance (state identical to the closure path's), walk events
    [0..n-1] in order performing predict-then-train for each, and write
    [verdicts.[i] = '\001'] iff event [i]'s direction was predicted
    correctly (['\000'] otherwise).  [verdicts] is caller-owned scratch
    of at least [n] bytes; bytes beyond [n] must be left untouched.

    A hybrid over a baseline ({!exec_hybrid}) fills in two phases: its
    own decision function writes the verdicts of the events it covers
    and a covered mask, then the baseline's kernel
    ({!Tage_scl.fill}) fills the uncovered events.  On a covered event
    the kernel only advances history (the [spectate] rule) and leaves
    the verdict byte alone.

    The closure path survives as the differential oracle: a compiled
    kernel must produce byte-identical [Machine.result]s, enforced by
    catalog tests, fuzz, and an in-bench assert. *)
module Compiled : sig
  type t = {
    name : string;
    storage_bits : int;
    fill :
      arena:Whisper_trace.Arena.t -> n:int -> verdicts:Bytes.t -> unit;
  }
end

val exec_hybrid : t -> decision:int -> pc:int -> taken:bool -> bool
(** One event of a hybrid predictor over the baseline [t] (ROMBF,
    BranchNet and Whisper are all such hybrids).  [decision] is the
    hybrid's own direction for the event (0 or 1), and the baseline
    spectates; or it is [-1], and the baseline predicts and trains.
    Returns whether the event's direction was predicted correctly. *)

val always_taken : unit -> t
(** Static predictor, the weakest baseline. *)

val ideal : unit -> t
(** The paper's ideal direction predictor (Fig. 1): every conditional
    branch direction is predicted correctly. *)

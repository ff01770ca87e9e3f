(** The BranchNet baseline end-to-end: storage-budgeted training over a
    profile plus the hybrid run-time (paper §II-D, Figs. 4, 12–13, 16).

    BranchNet deploys one model per covered static branch; on-chip
    metadata budget divided by per-model size bounds coverage, so the
    variants differ only in how many of the worst-mispredicting branches
    get a model:

    - [`Budget 8192] / [`Budget 32768] — the paper's practical 8 KB and
      32 KB configurations;
    - [`Unlimited] — the paper's impractical limit variant (coverage is
      still bounded by candidate count and the per-branch training cost
      that Fig. 16 highlights). *)

type budget = Budget of int | Unlimited

type t = {
  models : (int, Model.t) Hashtbl.t;  (** per branch PC *)
  budget : budget;
  training_seconds : float;
}

type walk
(** One walk over a profile's candidates in {!Whisper_trace.Profile.candidates}
    order, shared by every budget.  It trains a candidate (one with at
    least 16 samples) the first time some {!take} needs it and records
    whether its model was accepted.  Safe to share across domains: a
    walk extends under its own mutex. *)

val walk :
  ?epochs:int ->
  ?min_eval_gain:int ->
  ?on_train:(unit -> unit) ->
  Whisper_trace.Profile.t ->
  walk
(** A walk that has trained nothing yet; [on_train] runs once per
    candidate trained, under the walk's mutex.  Defaults: [epochs] 12,
    [min_eval_gain] 2. *)

val take : ?max_models:int -> walk -> budget -> t
(** The first [b / 465] accepted models for [Budget b] (every model
    takes 465 bytes) and the first [max_models] (default 256) for
    [Unlimited], in acceptance order.  The walk is extended to that
    acceptance and no further, so no candidate past it is trained.
    [training_seconds] is this call's own time. *)

val train :
  ?budget:budget ->
  ?epochs:int ->
  ?max_models:int ->
  ?min_eval_gain:int ->
  Whisper_trace.Profile.t ->
  t
(** {!take} on a fresh {!walk}: train models for the top mispredicting
    candidates until the budget (or [max_models], default 256 for
    [`Unlimited]) is exhausted; a model is kept only when it beats the
    profiled baseline on held-out samples.  [training_seconds] covers
    the whole walk.  Defaults: [budget = Unlimited], [epochs] 12. *)

val model_count : t -> int
val storage_bytes : t -> int

module Runtime : sig
  type rt

  val create : t -> baseline:Whisper_bpu.Predictor.t -> rt
  (** @raise Invalid_argument ["Branchnet.Runtime.create"] if a model
      does not take the 56 raw-history inputs the runtime feeds it. *)

  val exec : rt -> Whisper_trace.Branch.event -> bool

  val exec_at : rt -> pc:int -> taken:bool -> bool
  (** [exec] on unboxed event fields, which never materializes a
      [Branch.event] record. *)

  val decide : rt -> pc:int -> taken:bool -> int
  (** The model's half of {!exec_at}: the covered branch's predicted
      direction (0 or 1), or [-1] when no model covers it and the
      baseline predicts it ({!Whisper_bpu.Predictor.exec_hybrid}).
      Advances the raw history and the coverage counter; never touches
      the baseline. *)

  val covered_predictions : rt -> int
end

(** The classic ROMBF baseline (Jiménez, Hanson & Lin, PACT 2001), as
    evaluated by the paper (§II-D, Figs. 4, 12–14).

    Each annotated static branch carries an N-bit hint ([n] = 4 or 8): a
    read-once monotone Boolean formula over the {e raw} outcomes of the
    last N branches, restricted to [and]/[or] node operations ([N-1]
    encoding bits) plus tautology (always-taken) and contradiction
    (never-taken).  Unlike Whisper there is no hashing — long-history
    correlations are out of reach — and no hint buffer: the hint is part
    of the branch instruction itself.

    Training searches the {e entire} classic formula space per branch
    (it is tiny), using the same train/eval split discipline as the
    Whisper analysis so the two techniques differ only in expressiveness,
    exactly as in the paper. *)

type hint = Tree of Whisper_formula.Tree.t | Always | Never

type t = {
  n : int;  (** history bits (4 or 8) *)
  hints : (int, hint) Hashtbl.t;  (** per branch PC *)
  training_seconds : float;
}

val train :
  ?n:int -> ?min_gain:int -> Whisper_trace.Profile.t -> t
(** Analyze every profile candidate; default [n] = 8, [min_gain] = 2. *)

val hint_count : t -> int

(** Run-time hybrid: annotated branches predicted by their formula over a
    raw history register, others by the wrapped baseline. *)
module Runtime : sig
  type rt

  val create : t -> baseline:Whisper_bpu.Predictor.t -> rt

  val exec : rt -> Whisper_trace.Branch.event -> bool
  (** Returns whether the prediction was correct. *)

  val exec_at : rt -> pc:int -> taken:bool -> bool
  (** [exec] on unboxed event fields, which never materializes a
      [Branch.event] record. *)

  val decide : rt -> pc:int -> taken:bool -> int
  (** The hint's half of {!exec_at}: the hinted direction (0 or 1), or
      [-1] when the branch has no hint and the baseline predicts it
      ({!Whisper_bpu.Predictor.exec_hybrid}).  Advances the raw history
      and the hint counter; never touches the baseline. *)

  val hinted_predictions : rt -> int
end

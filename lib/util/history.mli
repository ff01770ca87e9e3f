(** Global branch-history ring buffer.

    Stores the most recent branch outcomes (1 = taken, 0 = not taken) up to
    a fixed depth.  The closure predictors and Whisper's run-time hashing
    keep their folded registers over it; the flat kernels read the same
    bits from an arena's taken bitmap instead.  The windows' definitions,
    which the tests check both against, live in [test/oracle]. *)

type t

val create : depth:int -> t
(** [create ~depth] holds the last [depth] outcomes, all initially 0
    (not taken).  @raise Invalid_argument if [depth <= 0]. *)

val push : t -> bool -> unit
(** [push t taken] records the outcome of the most recent branch. *)

val get : t -> int -> int
(** [get t i] is the outcome of the branch [i+1] branches ago (so [get t 0]
    is the most recent outcome), as 0 or 1.  Outcomes older than [depth]
    read as 0.  @raise Invalid_argument if [i < 0]. *)

(** Incrementally maintained folded (hashed) history, one register per
    tracked history length — the same circular-shift-register construction
    used by TAGE hardware, which the paper cites as evidence that history
    hashing is already implementable (§III-A). *)
module Folded : sig
  type h := t
  type t

  val create : len:int -> chunk:int -> t
  (** A folded register over the last [len] outcomes, [chunk] bits wide. *)

  val len : t -> int
  val chunk : t -> int

  val value : t -> int
  (** Current hash value. *)

  val update : t -> history:h -> newest:bool -> unit
  (** [update t ~history ~newest] advances the register after [newest] has
      been determined but {e before} it is pushed onto [history]; the
      register needs [history] to read the outgoing bit of age [len-1]. *)
end

val push_all : t -> Folded.t array -> bool -> unit
(** [push_all t regs taken] updates every folded register and then pushes
    the outcome — the one correct ordering of the two operations. *)

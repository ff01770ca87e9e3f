(** TAGE-SC-L (Seznec, CBP-4/5): TAGE refined by a statistical corrector
    and overridden by a loop predictor — the state-of-the-art online
    baseline of the paper (64 KB in the main results; 8 KB–1 MB in the
    sensitivity sweeps). *)

type t

val create : Sizes.t -> t
val storage_bits : t -> int

val predict : t -> pc:int -> bool
val train : t -> pc:int -> taken:bool -> unit
val spectate : t -> pc:int -> taken:bool -> unit

val predictor : Sizes.t -> Predictor.t
(** Package as a {!Predictor.t} named ["tage-scl-<kb>KB"]. *)

val fill :
  Sizes.t ->
  arena:Whisper_trace.Arena.t ->
  n:int ->
  covered:Bytes.t ->
  verdicts:Bytes.t ->
  unit
(** The flat arena kernel: a fresh predictor runs events [0 .. n-1] and
    writes [verdicts] as {!Predictor.Compiled} specifies, except that an
    event with [covered.[i] <> '\000'] is served by some other
    predictor: it only advances history (the {!spectate} rule) and its
    verdict byte is left as the caller wrote it.  History is the arena's
    taken bitmap, so the verdicts equal those of {!predictor} driven
    event by event.
    @raise Invalid_argument if [n] exceeds the arena, [covered] or
    [verdicts] is shorter than [n], or the geometry does not fit the
    kernel's layout: more than 12 tables, [log_entries] outside 3..21,
    tags outside 2..15 bits, [sc_log] outside 1..15 or [loop_log]
    outside 1..16.  Every {!Sizes.for_budget} geometry fits. *)

val hybrid :
  Sizes.t ->
  decide:(int -> int) ->
  arena:Whisper_trace.Arena.t ->
  n:int ->
  verdicts:Bytes.t ->
  unit
(** The fill of a hybrid over this baseline (see
    {!Predictor.exec_hybrid}).  [decide i] runs the hybrid's own half on
    event [i] of [arena], in order, and returns its [decision].  The
    covered events' verdicts and mask are written first, then {!fill}
    runs the rest.  Sound because no hybrid's decisions read the
    baseline's state. *)

val compiled : Sizes.t -> Predictor.Compiled.t
(** {!fill} with nothing covered, as a {!Predictor.Compiled.t}. *)

(** Statistical corrector (the "SC" of TAGE-SC-L): a small GEHL-style bank
    of signed counters over short folded histories plus a per-PC bias,
    which can veto TAGE's prediction when the statistical evidence against
    it is strong — catching statistically-biased branches that TAGE's
    tagged entries track poorly. *)

val hist_lens : int array
(** History length of each counter bank. *)

val initial_threshold : int
(** Starting veto threshold. *)

type t

val create : log_entries:int -> t

val storage_bits : t -> int

val refine :
  ?tage_conf:[ `High | `Med | `Low ] -> t -> pc:int -> tage_pred:bool -> bool
(** Final direction after the corrector's veto logic; the veto threshold
    scales with TAGE's confidence (high-confidence predictions are vetoed
    only on overwhelming statistical evidence).  Records the lookup
    context for {!train}. *)

val refine_conf :
  t -> conf:[ `High | `Med | `Low ] -> pc:int -> tage_pred:bool -> bool
(** {!refine} with a required confidence argument — the replay hot loop
    uses this to avoid boxing the optional argument per prediction. *)

val train : t -> pc:int -> taken:bool -> unit
(** Perceptron-style threshold update; advances the corrector's own
    history.  Must follow {!refine} for the same [pc]. *)

val spectate : t -> taken:bool -> unit
(** History-only update. *)

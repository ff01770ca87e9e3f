(** TAGE (Seznec & Michaud): a base bimodal predictor plus [n] tagged
    tables indexed by PC hashed with geometrically increasing global
    history lengths, with usefulness-guided allocation.

    This is the component the paper's 64 KB baseline is built from
    (TAGE-SC-L = TAGE + statistical corrector + loop predictor; see
    {!Tage_scl}).  Folded history registers follow the standard
    circular-shift construction, so the capacity/aliasing behaviour the
    paper attributes to large branch footprints (§II-C) emerges from real
    table geometry rather than from a model. *)

type params = {
  n_tables : int;
  log_entries : int;  (** per tagged table *)
  tag_bits : int;
  min_len : int;
  max_len : int;
  log_bimodal : int;
  u_reset_period : int;  (** trains between graceful usefulness agings *)
}

val default_params : params
(** 12 tables, 2^11 entries, 9-bit tags, lengths 8–1024 — the ≈64 KB
    configuration (see {!Sizes}). *)

type t

val lengths : params -> int array
(** The tagged tables' history lengths, shortest first: a geometric
    series from [min_len] to [max_len]. *)

val create : params -> t

val history_lengths : t -> int array

val storage_bits : t -> int

val predict : t -> pc:int -> bool
(** Also records the lookup context consumed by the next {!train}. *)

val confidence : t -> [ `High | `Med | `Low ]
(** Confidence of the last {!predict}, from the provider counter
    (used by the statistical corrector's veto gate). *)

val train : t -> pc:int -> taken:bool -> unit
(** Counter/usefulness update and allocation; advances global history.
    Must follow {!predict} for the same [pc]. *)

val spectate : t -> pc:int -> taken:bool -> unit
(** Advance global history only (Whisper-hinted branches). *)

val predictor : params -> Predictor.t
(** Package as a {!Predictor.t}. *)

(** MTAGE-SC stand-in: the best unlimited-storage predictor of CBP-5,
    approximated as an exact-substream TAGE — tagged tables with
    unbounded capacity and collision-free (64-bit folded) keys across a
    geometric series of history lengths.  Used for the paper's limit
    comparisons (Figs. 12, 21: MPKI 1.4 vs. 1.9 for 1 MB TAGE-SC-L).

    With unbounded entries, every (PC, history-window) substream that
    repeats is eventually memorized, so residual mispredictions come only
    from compulsory accesses, genuinely data-dependent branches and
    model noise — the behaviour the paper ascribes to MTAGE-SC. *)

val predictor : ?n_lengths:int -> ?max_len:int -> unit -> Predictor.t
(** Defaults: 9 lengths, 8–1024. Reported [storage_bits] is 0 (unlimited
    category). *)

val compiled : ?n_lengths:int -> ?max_len:int -> unit -> Predictor.Compiled.t
(** The flat arena kernel, as {!Predictor.Compiled} specifies: each
    [fill] runs a fresh instance over events [0 .. n-1], reading history
    from the arena's taken bitmap and keeping each length's substreams
    in an open-addressing table, so its verdicts equal those of
    {!predictor} driven event by event.
    @raise Invalid_argument from [fill] if [n] exceeds the arena or
    [verdicts] is shorter than [n]. *)

(** One function per table/figure of the paper's evaluation.  Each returns
    a {!Report.t} whose rows mirror what the paper plots; EXPERIMENTS.md
    records the paper-vs-measured comparison. *)

val table1 : unit -> Report.t
(** Applications and workloads under study. *)

val table2 : unit -> Report.t
(** Simulator parameters. *)

val table3 : unit -> Report.t
(** Whisper design-parameter values. *)

val fig1 : Runner.ctx -> Report.t
(** Limit study: ideal-direction-predictor speedup over the 64 KB
    baseline, split into misprediction-stall and frontend-stall savings. *)

val fig2 : Runner.ctx -> Report.t
(** Branch-MPKI of the 64 KB TAGE-SC-L per application. *)

val fig3 : Runner.ctx -> Report.t
(** Misprediction class breakdown (compulsory/capacity/conflict/
    conditional-on-data). *)

val prior_techniques : (string * Runner.technique) list
(** The prior profile-guided techniques with their column labels:
    4b- and 8b-ROMBF, and BranchNet at 8 KB, 32 KB and unlimited. *)

val fig4 : Runner.ctx -> Report.t
(** Misprediction reduction of {!prior_techniques}. *)

val fig5 : Runner.ctx -> Report.t
(** CDF of mispredictions over static branches (SPEC-like and
    data-center applications) at power-of-two branch counts. *)

val fig6 : Runner.ctx -> Report.t
(** Distribution of Whisper-avoided mispredictions over correlation
    history lengths (paper buckets 1-8 … 1024). *)

val fig7 : Runner.ctx -> Report.t
(** Distribution of profiled branch executions over the logical operation
    of their best formula. *)

val fig12 : Runner.ctx -> Report.t
(** Speedup over the 64 KB baseline for every technique, Whisper,
    MTAGE-SC and the ideal predictor. *)

val fig13 : Runner.ctx -> Report.t
(** Misprediction reduction for every technique and Whisper. *)

val fig14 : Runner.ctx -> Report.t
(** Whisper's gains over 8b-ROMBF, split between hashed history
    correlation and the Implication/Converse-Non-Implication extension. *)

val fig15 : ?app:string -> Runner.ctx -> Report.t
(** Exploration-fraction sweep: misprediction reduction and training time
    vs % of formulas explored (single representative application;
    hint coverage fixed across points). *)

val fig16 : Runner.ctx -> Report.t
(** Offline training time per technique (seconds, per application mean). *)

val fig17 : Runner.ctx -> Report.t
(** Input sensitivity: reduction with the training-input profile vs a
    same-input profile, per application and test input. *)

val fig18 : Runner.ctx -> Report.t
(** Merged profiles from 1–5 inputs (8b-ROMBF / unlimited BranchNet /
    Whisper averages). *)

val fig19 : Runner.ctx -> Report.t
(** Static and dynamic instruction overhead of injected brhints. *)

val fig20 : Runner.ctx -> Report.t
(** Whisper's misprediction reduction over a 128 KB TAGE-SC-L. *)

val fig21 : Runner.ctx -> Report.t
(** Baseline-size sweep 8 KB – 1 MB: average misprediction reduction. *)

val fig22 : Runner.ctx -> Report.t
(** Warm-up sweep 0–90 %: average misprediction reduction computed over
    the post-warm-up suffix. *)

val fig23 : Runner.ctx -> Report.t
(** Simulated-trace-length sweep: average misprediction reduction over
    growing event-count prefixes. *)

val all_ids : string list
(** Every experiment id, in paper order. *)

val by_id : string -> (Runner.ctx -> Report.t) option
(** Lookup an experiment by id ("table1" … "fig23"). *)

(** Unified execution of every prediction technique in the study over the
    timing model, with in-process memoization of profiles, trained
    artifacts and run results, so that figures sharing configurations
    (e.g. Figs. 12 and 13) pay for each simulation once.

    Two layers sit on top of the memo tables:

    - an optional persistent {!Result_cache} (enabled with
      [create_ctx ~cache_dir]), which survives CLI invocations so warm
      reruns perform zero simulations;
    - a declarative batch API ({!sim} / {!collect} / {!run_batch}) that
      fans independent work items out across a {!Whisper_util.Pool} of
      domains.  Every stochastic component draws from a deterministic
      per-task RNG seeded by the work item's own parameters, so parallel
      and sequential runs produce identical tables. *)

type technique =
  | Baseline  (** the TAGE-SC-L under test, alone *)
  | Ideal
  | Mtage_sc
  | Rombf of int  (** 4 or 8 *)
  | Branchnet of Whisper_branchnet.Branchnet.budget
  | Whisper of Whisper_core.Config.t

val technique_name : technique -> string

val technique_of_name : string -> technique option
(** The case-insensitive inverse of {!technique_name} over the
    techniques the figures run (tage-scl, ideal, mtage-sc, 4b-rombf,
    8b-rombf, 8KB-branchnet, 32KB-branchnet, unlimited-branchnet and
    whisper with its default configuration), plus the short aliases
    baseline, mtage, rombf4, rombf8, branchnet8k, branchnet32k and
    branchnet.  The CLI and the sweep both parse names with it. *)

val technique_key : technique -> string
(** Stable key covering the technique's full configuration (used by both
    the memo tables and the on-disk cache): {!technique_name}, except
    for Whisper's configuration and a BranchNet budget that is not a
    whole number of KB, which is keyed by its bytes
    (["8000B-branchnet"]). *)

type ctx
(** Holds caches; create one per process/figure batch.  All operations
    on a [ctx] are safe to call from multiple pool workers. *)

type replay = [ `Arena | `Closure ]
(** How simulations feed the timing model: [`Arena] (the default)
    materializes each (app, input) event stream once into a packed
    {!Whisper_trace.Arena} shared by every technique and pool domain;
    [`Closure] regenerates the stream through [App_model.source] per
    simulation — kept as the differential oracle.  Results are
    byte-identical between the two modes. *)

val create_ctx :
  ?events:int ->
  ?baseline_kb:int ->
  ?jobs:int ->
  ?replay:replay ->
  ?cache_dir:string ->
  ?faults:float ->
  ?fault_seed:int ->
  ?retries:int ->
  ?task_timeout:float ->
  ?hang_s:float ->
  unit ->
  ctx
(** Defaults: 1.2 M branch events per simulation, 64 KB baseline, one
    worker domain, no persistent cache, [`Arena] replay.  [cache_dir]
    enables the on-disk result cache rooted at that directory (created
    if missing), plus the arena cache in its [arenas/] subdirectory so
    packed replay buffers survive CLI invocations too.

    Chaos/degraded mode: [faults > 0.0] turns on deterministic fault
    injection (a {!Whisper_util.Fault.t} seeded with [fault_seed],
    default 42) over batch work items {e and} the persistent cache's
    read path.  [retries] (default 2) grants each work item
    [1 + retries] attempts with exponential backoff; [task_timeout]
    bounds each attempt in seconds (also honoured without faults);
    [hang_s] is how long an injected hang sleeps.  Work items that
    exhaust their attempts are quarantined: {!run_batch} still succeeds,
    and {!run} reports them as degraded (NaN cycle accounts) instead of
    raising.  All fault decisions are pure functions of
    [(fault_seed, work key)], so a chaos run is byte-identical across
    reruns and job counts. *)

val events : ctx -> int
val set_events : ctx -> int -> unit
val baseline_kb : ctx -> int

val jobs : ctx -> int
(** Worker domains used by {!run_batch} (and the experiments' own
    parallel row computations). *)

val set_jobs : ctx -> int -> unit
val replay : ctx -> replay
val set_replay : ctx -> replay -> unit
val cache_dir : ctx -> string option

type stats = {
  sims : int;  (** timing-model simulations actually executed *)
  sim_seconds : float;  (** wall time summed over those simulations *)
  cache_hits : int;  (** results served from the persistent cache *)
  cache_misses : int;  (** persistent-cache lookups that missed *)
  arena_builds : int;  (** packed arenas generated in-process *)
  arena_seconds : float;  (** wall time summed over those builds *)
  arena_cache_hits : int;  (** arenas loaded from the persistent cache *)
  arena_cache_misses : int;  (** arena-cache lookups that missed *)
}

val stats : ctx -> stats
(** Cumulative counters since [create_ctx]; snapshot before/after an
    experiment to report its cost ({!Report.with_timing}). *)

val cfg_of : ctx -> Whisper_trace.Workloads.config -> Whisper_trace.Cfg.t

val lbr_predictor : int -> unit -> pc:int -> taken:bool -> bool
(** [lbr_predictor kb ()] is a fresh [kb]-budget TAGE-SC-L baseline as
    the correctness closure {!Whisper_trace.Profile.collect} consumes —
    the LBR-style "was the baseline right" bit production profiling
    exposes.  Each application returns an independent predictor
    instance (collection replays the stream twice against fresh
    state). *)

val arena :
  ctx -> Whisper_trace.Workloads.config -> input:int -> Whisper_trace.Arena.t
(** The memoized packed arena for (app, input) at the ctx's current
    event count, consulting (and populating) the persistent arena cache
    when one is enabled.  Immutable — share freely across domains. *)

val make_exec :
  ctx ->
  Whisper_trace.Workloads.config ->
  technique ->
  train_inputs:int list ->
  kb:int ->
  Whisper_trace.Branch.event ->
  bool
(** A fresh technique runtime as a per-event exec closure for
    {!Whisper_pipeline.Machine.run}.  A trained technique's spec is
    memoized in the ctx per (profile, technique): ROMBF specs by [n],
    and BranchNet budgets as prefixes of one {!Whisper_branchnet.Branchnet.walk}
    per profile, so a profile's candidates are trained at most once
    whatever budgets are asked for, in whatever order.  A call that
    trains records a [train/<app>/<technique>] span and counts
    [runner.rombf.trained] (specs) or
    [runner.branchnet.candidates_trained] (candidates); a memoized
    spec records nothing. *)

val make_exec_arena :
  ctx ->
  Whisper_trace.Workloads.config ->
  technique ->
  train_inputs:int list ->
  kb:int ->
  arena:Whisper_trace.Arena.t ->
  Whisper_pipeline.Machine.arena_exec
(** The same runtime as an arena execution strategy for
    {!Whisper_pipeline.Machine.run_arena_exec}: [Oracle] for the ideal
    predictor, staged {!Whisper_bpu.Predictor.Compiled} kernels for the
    online baselines (TAGE-SC-L / MTAGE-SC), and for the trained
    runtimes a {!Whisper_bpu.Tage_scl.hybrid} fill: the runtime's
    decision function marks the events it covers, and the TAGE-SC-L
    kernel fills the rest.  Byte-identical results to {!make_exec} under
    {!Whisper_pipeline.Machine.run} by the differential-oracle tests. *)

val profile_arena :
  ?max_samples:int -> kb:int -> Whisper_trace.Arena.t -> Whisper_trace.Profile.t
(** The arena profile collector: a two-pass LBR profile of every event
    in the arena against a fresh [kb]-budget TAGE-SC-L baseline.  The
    compiled kernel fills the baseline's verdicts once and both passes
    replay them through a cursor, so the predictor runs once instead of
    twice and the stream is never regenerated.  Byte-identical to
    {!Whisper_trace.Profile.collect} with {!lbr_predictor}[ kb] over the
    same event stream ([max_samples] as there, default 512).  {!profile}
    and [whisper serve]'s chunk collection both go through it.
    @raise Invalid_argument if {!Whisper_bpu.Sizes.for_budget} refuses
    [kb]. *)

val profile :
  ?inputs:int list ->
  ?baseline_kb:int ->
  ctx ->
  Whisper_trace.Workloads.config ->
  Whisper_trace.Profile.t
(** Memoized profile collection ([inputs] defaults to [[0]]; several
    inputs are collected separately and merged, Fig. 18).  [`Arena]
    replay collects with {!profile_arena} over the memoized arena. *)

val run_key :
  ctx ->
  Whisper_trace.Workloads.config ->
  technique ->
  train_inputs:int list ->
  test_input:int ->
  kb:int ->
  string
(** The stable key {!run} memoizes and caches that configuration under —
    also the sweep orchestrator's manifest/journal item key, so a worker
    process's cache store and the supervisor's resume verification
    address the same file. *)

val run :
  ?train_inputs:int list ->
  ?test_input:int ->
  ?baseline_kb:int ->
  ctx ->
  Whisper_trace.Workloads.config ->
  technique ->
  Whisper_pipeline.Machine.result
(** Memoized end-to-end run: offline training from the train-input
    profile(s) where the technique needs it, then a timed simulation on
    the test input (default: train on input 0, test on input 1 — the
    paper's cross-input methodology).  Consults the persistent cache
    (when enabled) before simulating, and stores fresh results back. *)

val whisper_analysis :
  ?config:Whisper_core.Config.t ->
  ?train_inputs:int list ->
  ?jobs:int ->
  ?pool:Whisper_util.Pool.t ->
  ctx ->
  Whisper_trace.Workloads.config ->
  Whisper_core.Analyze.t
(** The offline analysis by itself (for Figs. 6, 7, 15, 16, 19).
    [jobs] (default 1) parallelizes the per-branch search over [pool]
    (default: the process-wide shared pool); plans are byte-identical
    for any value of either.  Keep the default [jobs] when already
    running inside a domain pool. *)

val whisper_plan :
  ?config:Whisper_core.Config.t ->
  ?train_inputs:int list ->
  ?jobs:int ->
  ?pool:Whisper_util.Pool.t ->
  ctx ->
  Whisper_trace.Workloads.config ->
  Whisper_core.Inject.t
(** Analysis + hint injection plan (for Fig. 19 overheads), memoized
    per (app, config, train inputs, baseline KB, events).  The Whisper
    runtimes {!make_exec} and {!make_exec_arena} build share the same
    memoized plan, so a plan is analyzed once per ctx. *)

(** {2 Declarative work items}

    Each experiment declares the (app, technique) simulations and the
    profile collections it needs; {!run_batch} dedups them, collects the
    profiles first (each exactly once), then fans the independent
    simulations out across [jobs ctx] domains.  Results land in the memo
    tables and the persistent cache, so the experiment's subsequent row
    construction is pure, sequential lookups — deterministic ordering
    regardless of job count. *)

type work

val sim :
  ?train_inputs:int list ->
  ?test_input:int ->
  ?baseline_kb:int ->
  Whisper_trace.Workloads.config ->
  technique ->
  work
(** One end-to-end run, same defaults as {!run}. *)

val collect :
  ?inputs:int list -> ?baseline_kb:int -> Whisper_trace.Workloads.config ->
  work
(** One profile collection, same defaults as {!profile}. *)

val run_batch : ctx -> work list -> unit
(** Execute every distinct work item, in parallel when [jobs ctx > 1].
    A task's exception is captured by the pool (other tasks complete)
    and re-raised here afterwards — except in chaos/degraded mode
    (see {!create_ctx}), where failing items are retried per policy and
    quarantined instead of raising. *)

(** {2 Degraded-mode accounting} *)

val quarantined : ctx -> (string * Whisper_util.Whisper_error.t) list
(** Work items that exhausted their retry budget, with the final typed
    error each one died with, sorted by key. *)

val note_quarantined :
  ctx -> key:string -> Whisper_util.Whisper_error.t -> unit
(** Externally quarantine a run key (the sweep supervisor's poison-item
    path: a work item that killed its worker process twice fails in
    another process, so nothing ever raises here).  Subsequent {!run}
    calls for the key return a degraded result. *)

val fault_summary : ctx -> Report.faults
(** Cumulative chaos counters since [create_ctx] (monotone — snapshot
    before/after an experiment for per-experiment deltas, like
    {!stats}). *)

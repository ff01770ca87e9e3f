(** Crash-safe sharded sweep orchestration (the fleet-scale batch layer
    of paper §IV: thousands of (application, technique) analysis items
    farmed out across machines).

    A sweep freezes its work into a content-keyed
    {!Whisper_util.Manifest} (each item's result key + a self-contained
    spec blob), then executes the items either

    - {b in worker processes} ([`Process]): the supervisor spawns
      [jobs] copies of [worker_argv] (the CLI's [whisper worker]
      subcommand), speaks the length-prefixed {!Whisper_util.Ipc}
      protocol over pipes, monitors heartbeats, SIGKILLs hung workers,
      restarts dead ones with bounded backoff, and {e quarantines} any
      item that takes a worker down twice (poison-item detection); or
    - {b in process} ([`In_process]): a sliding window over the shared
      domain pool — also the graceful-degradation path when worker
      processes cannot be spawned at all.

    Every completion is appended to a checksummed
    {!Whisper_util.Journal} {e before} the item counts as done, so a
    [kill -9] at any instant loses at most the in-flight items:
    re-running with [resume = true] replays the journal, re-verifies
    each [Done] entry against the persistent result cache by digest,
    and executes only what is left.  The aggregate fleet report is
    rebuilt from scratch each time by pure, manifest-ordered lookups —
    byte-identical whether the sweep ran uninterrupted, was killed and
    resumed at arbitrary points, or ran at a different job count.

    Chaos knobs route through {!Whisper_util.Fault}: [faults > 0]
    deterministically crashes workers mid-item ([Worker_crash]), wedges
    them silently ([Heartbeat_stall]) and injects the usual task/byte
    faults, all pure in [(fault_seed, item key)] — so the quarantine
    set, and hence the report, is identical between process and
    in-process execution. *)

type app_ref =
  | Catalog of string  (** a {!Whisper_trace.Workloads.by_name} entry *)
  | Sampled of { seed : int; index : int }
      (** parameter-sampled fleet app ({!Whisper_trace.Workloads.sample}) *)

val fleet : seed:int -> n:int -> app_ref list
(** [Sampled] apps 0..n-1 under one sampling seed. *)

val default_techniques : string list
(** [["tage-scl"; "8b-rombf"; "whisper"]] — the paper's main
    comparison at fleet scale. *)

type mode = [ `Process | `In_process ]

type config = {
  apps : app_ref list;
  techniques : string list;
      (** names accepted by {!Runner.technique_of_name} *)
  events : int;  (** branch events per simulation *)
  kb : int;  (** baseline predictor budget *)
  state_dir : string;
      (** holds [manifest.bin], [journal.bin] and the shared result
          cache ([cache/]) that workers and resume verification use *)
  jobs : int;  (** worker processes / in-process window width *)
  mode : mode;
  worker_argv : string array;
      (** command line of one worker ([`Process] mode); defaults to
          [[| Sys.executable_name; "worker" |]] *)
  faults : float;  (** chaos rate, 0.0 = off *)
  fault_seed : int;
  heartbeat_s : float;  (** worker heartbeat period *)
  hang_timeout_s : float;
      (** silence from a busy worker before it is declared hung and
          SIGKILLed; keep well above [heartbeat_s] *)
  max_worker_restarts : int;  (** respawns per worker slot *)
  max_attempts : int;
      (** tries per item for clean (worker-survives) failures;
          worker-killing items are quarantined after 2 strikes *)
  resume : bool;
      (** replay [state_dir]'s journal and skip verified completions *)
  max_completions : int option;
      (** test hook: stop — as if [kill -9]'d — once this many
          completions have been journaled this run, skipping the
          report *)
}

val default : state_dir:string -> config
(** 24 sampled apps x {!default_techniques}, 60k events, 64 KB, one
    worker, [`Process] mode, no faults, no resume. *)

val plan : config -> Whisper_util.Manifest.t
(** The manifest [run] will execute: one item per (app, technique) in
    order, keys from {!Runner.run_key}.  Pure in the config. *)

type outcome = {
  report : Report.t option;  (** [None] when interrupted *)
  manifest_id : string;
  total : int;  (** manifest items *)
  completed : int;  (** items newly journaled [Done] this run *)
  resumed : int;  (** journal entries verified and skipped *)
  quarantined : int;  (** poison / exhausted items, cumulative *)
  worker_crashes : int;  (** worker processes that died mid-run *)
  worker_hangs : int;  (** workers SIGKILLed by hang detection *)
  worker_restarts : int;  (** respawns after a death *)
  fellback : bool;  (** [`Process] degraded to in-process execution *)
  journal_recovered : bool;  (** resume found a usable journal *)
  journal_dropped_bytes : int;  (** torn tail truncated on recovery *)
  interrupted : bool;  (** stopped early by [max_completions] *)
}

val run : config -> outcome
(** Execute (or resume) the sweep.  The report, its CSV rendering and
    the quarantine notes are deterministic functions of the config —
    independent of mode, job count, kills and resumes.  Crash/resume
    accounting goes to telemetry ([sweep.*] counters) and the outcome,
    never into the report. *)

val worker_main : unit -> 'a
(** The [whisper worker] entry point: speak {!Whisper_util.Ipc} on
    stdin/stdout until [Shutdown] or EOF, then exit.  Never returns. *)

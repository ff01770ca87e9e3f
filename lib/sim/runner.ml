open Whisper_trace
open Whisper_bpu

type technique =
  | Baseline
  | Ideal
  | Mtage_sc
  | Rombf of int
  | Branchnet of Whisper_branchnet.Branchnet.budget
  | Whisper of Whisper_core.Config.t

let technique_name = function
  | Baseline -> "tage-scl"
  | Ideal -> "ideal"
  | Mtage_sc -> "mtage-sc"
  | Rombf n -> Printf.sprintf "%db-rombf" n
  | Branchnet (Whisper_branchnet.Branchnet.Budget b) ->
      Printf.sprintf "%dKB-branchnet" (b / 1024)
  | Branchnet Whisper_branchnet.Branchnet.Unlimited -> "unlimited-branchnet"
  | Whisper _ -> "whisper"

(* The one technique table: every name {!technique_name} prints for the
   figures' rows, plus the CLI's short aliases. *)
let technique_names =
  let open Whisper_branchnet.Branchnet in
  List.map
    (fun t -> (String.lowercase_ascii (technique_name t), t))
    [
      Baseline;
      Ideal;
      Mtage_sc;
      Rombf 4;
      Rombf 8;
      Branchnet (Budget 8192);
      Branchnet (Budget 32768);
      Branchnet Unlimited;
      Whisper Whisper_core.Config.default;
    ]
  @ [
      ("baseline", Baseline);
      ("mtage", Mtage_sc);
      ("rombf4", Rombf 4);
      ("rombf8", Rombf 8);
      ("branchnet8k", Branchnet (Budget 8192));
      ("branchnet32k", Branchnet (Budget 32768));
      ("branchnet", Branchnet Unlimited);
    ]

let technique_of_name s =
  List.assoc_opt (String.lowercase_ascii s) technique_names

(* A stable cache key for a technique's configuration.  The name prints
   a BranchNet budget in whole KB, so a budget that is not one is keyed
   by its bytes. *)
let technique_key = function
  | Whisper c ->
      Printf.sprintf "whisper/%d/%d/%d/%s/%f/%d/%d/%d" c.min_len c.max_len
        c.n_lengths
        (match c.ops with `Extended -> "ext" | `Classic -> "cls")
        c.explore_frac c.hint_buffer_size c.max_hints c.seed
  | Branchnet (Whisper_branchnet.Branchnet.Budget b) when b mod 1024 <> 0 ->
      string_of_int b ^ "B-branchnet"
  | t -> technique_name t

(* Whether offline training (and hence a profile) is needed at all. *)
let technique_needs_profile = function
  | Baseline | Ideal | Mtage_sc -> false
  | Rombf _ | Branchnet _ | Whisper _ -> true

type stats = {
  sims : int;
  sim_seconds : float;
  cache_hits : int;
  cache_misses : int;
  arena_builds : int;
  arena_seconds : float;
  arena_cache_hits : int;
  arena_cache_misses : int;
}

type replay = [ `Arena | `Closure ]

(* A memo entry computed exactly once: the first caller to take its lock
   computes the value while later callers wait for it. *)
type 'a once = { once_lock : Mutex.t; mutable value : 'a option }

type ctx = {
  mutable ev : int;
  base_kb : int;
  mutable n_jobs : int;
  mutable replay_mode : replay;
  cache : Result_cache.t option;
  arena_cache : Arena_cache.t option;
  fault : Whisper_util.Fault.t option;
  policy : Whisper_util.Pool.policy;
  quarantine : (string, Whisper_util.Whisper_error.t) Hashtbl.t;
  lock : Mutex.t;
  cfgs : (string, Cfg.t) Hashtbl.t;
  profiles : (string, Profile.t) Hashtbl.t;
  plans : (string, Whisper_core.Inject.t) Hashtbl.t;
  rombfs : (string * int, Whisper_rombf.Rombf.t once) Hashtbl.t;
  walks : (string, Whisper_branchnet.Branchnet.walk) Hashtbl.t;
  branchnets :
    ( string * Whisper_branchnet.Branchnet.budget,
      Whisper_branchnet.Branchnet.t once )
    Hashtbl.t;
  arenas : (string, Arena.t) Hashtbl.t;
  results : (string, Whisper_pipeline.Machine.result) Hashtbl.t;
  mutable n_sims : int;
  mutable sim_seconds : float;
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_arena_builds : int;
  mutable arena_seconds : float;
  mutable n_arena_hits : int;
  mutable n_arena_misses : int;
  mutable n_retries : int;
  mutable n_observed : int;
}

let create_ctx ?(events = 1_200_000) ?(baseline_kb = 64) ?(jobs = 1)
    ?(replay = `Arena) ?cache_dir ?(faults = 0.0) ?(fault_seed = 42)
    ?(retries = 2) ?task_timeout ?hang_s () =
  let fault =
    if faults > 0.0 then
      Some (Whisper_util.Fault.create ~seed:fault_seed ?hang_s ~rate:faults ())
    else None
  in
  (* under chaos mode the cache read path is corrupted too, so the
     corrupt-entry-drop machinery gets exercised end to end *)
  let corrupt =
    Option.map
      (fun f ~key b -> Whisper_util.Fault.corrupt f ~key:("cache/" ^ key) b)
      fault
  in
  let policy =
    if fault = None && task_timeout = None then Whisper_util.Pool.default_policy
    else
      {
        Whisper_util.Pool.default_policy with
        attempts = 1 + max 0 retries;
        timeout_s = task_timeout;
      }
  in
  (* the arena cache shares the result cache's root (and, under chaos,
     its bit-rot injection) but keys its corruptions separately so the
     two caches degrade independently *)
  let arena_corrupt =
    Option.map
      (fun f ~key b -> Whisper_util.Fault.corrupt f ~key:("arena/" ^ key) b)
      fault
  in
  {
    ev = events;
    base_kb = baseline_kb;
    n_jobs = max 1 jobs;
    replay_mode = replay;
    cache = Option.map (fun dir -> Result_cache.create ?corrupt ~dir ()) cache_dir;
    arena_cache =
      Option.map
        (fun dir ->
          Arena_cache.create ?corrupt:arena_corrupt
            ~dir:(Filename.concat dir Arena_cache.default_subdir)
            ())
        cache_dir;
    fault;
    policy;
    quarantine = Hashtbl.create 16;
    lock = Mutex.create ();
    cfgs = Hashtbl.create 32;
    profiles = Hashtbl.create 64;
    plans = Hashtbl.create 16;
    rombfs = Hashtbl.create 16;
    walks = Hashtbl.create 16;
    branchnets = Hashtbl.create 16;
    arenas = Hashtbl.create 32;
    results = Hashtbl.create 256;
    n_sims = 0;
    sim_seconds = 0.0;
    n_hits = 0;
    n_misses = 0;
    n_arena_builds = 0;
    arena_seconds = 0.0;
    n_arena_hits = 0;
    n_arena_misses = 0;
    n_retries = 0;
    n_observed = 0;
  }

let events ctx = ctx.ev
let set_events ctx e = ctx.ev <- e
let baseline_kb ctx = ctx.base_kb
let jobs ctx = ctx.n_jobs
let set_jobs ctx j = ctx.n_jobs <- max 1 j
let replay ctx = ctx.replay_mode
let set_replay ctx r = ctx.replay_mode <- r
let cache_dir ctx = Option.map Result_cache.dir ctx.cache

let stats ctx =
  Mutex.protect ctx.lock (fun () ->
      {
        sims = ctx.n_sims;
        sim_seconds = ctx.sim_seconds;
        cache_hits = ctx.n_hits;
        cache_misses = ctx.n_misses;
        arena_builds = ctx.n_arena_builds;
        arena_seconds = ctx.arena_seconds;
        arena_cache_hits = ctx.n_arena_hits;
        arena_cache_misses = ctx.n_arena_misses;
      })

(* Telemetry mirrors of the ctx accounting above: same increment sites,
   but aggregated process-wide and exported through the one end-of-run
   summary/metrics path.  All are deterministic across job counts for
   fault-free runs (see Telemetry's contract); retry/quarantine counts
   are inherently racy under chaos mode. *)
module Tm = Whisper_util.Telemetry

let m_cache_hits = Tm.counter "runner.result_cache.hits"
let m_cache_misses = Tm.counter "runner.result_cache.misses"
let m_sims = Tm.counter "runner.sims"
let m_arena_builds = Tm.counter "runner.arena.builds"
let m_arena_hits = Tm.counter "runner.arena_cache.hits"
let m_arena_misses = Tm.counter "runner.arena_cache.misses"
let m_profiles = Tm.counter "runner.profiles_collected"
let m_retries = Tm.counter "runner.retries"
let m_quarantined = Tm.counter "runner.quarantined"
let m_degraded = Tm.counter "runner.degraded_results"
let m_rombf_trained = Tm.counter "runner.rombf.trained"
let m_branchnet_trained = Tm.counter "runner.branchnet.candidates_trained"

(* Double-checked memoization over a ctx table.  The compute step runs
   outside the lock, so two domains racing on the same key may both
   compute it; every computation here is a pure function of the key, so
   whichever value lands first is kept and the tables stay consistent
   (and physical equality of repeated sequential lookups is preserved,
   which the memoization tests rely on). *)
let memo ctx tbl key compute =
  match Mutex.protect ctx.lock (fun () -> Hashtbl.find_opt tbl key) with
  | Some v -> v
  | None -> (
      let v = compute () in
      Mutex.protect ctx.lock (fun () ->
          match Hashtbl.find_opt tbl key with
          | Some v -> v
          | None ->
              Hashtbl.add tbl key v;
              v))

(* [memo] for values whose computation records telemetry: [memo] hands
   every caller the same cell, and only one of them computes its value,
   so the counters of a run stay equal across job counts.  A value that
   raises is left uncomputed for the next caller. *)
let once ctx tbl key compute =
  let cell =
    memo ctx tbl key (fun () -> { once_lock = Mutex.create (); value = None })
  in
  Mutex.protect cell.once_lock (fun () ->
      match cell.value with
      | Some v -> v
      | None ->
          let v = compute () in
          cell.value <- Some v;
          v)

let cfg_of ctx (app : Workloads.config) =
  memo ctx ctx.cfgs app.name (fun () -> Workloads.build_cfg app)

let model ctx app ~input =
  let cfg = cfg_of ctx app in
  App_model.create ~cfg ~config:app ~input ()

let source ctx app ~input = App_model.source (model ctx app ~input)

let arena_key ctx (app : Workloads.config) ~input =
  Printf.sprintf "arena/%s/%d/%d/%d" app.name app.seed input ctx.ev

(* One packed arena per (app, input, events), shared read-only by every
   technique and every pool domain.  The persistent cache (when enabled)
   makes the decode-once step survive CLI invocations: a warm run loads
   packed buffers straight from disk and never touches App_model. *)
let arena ctx app ~input =
  let key = arena_key ctx app ~input in
  memo ctx ctx.arenas key (fun () ->
      match Option.bind ctx.arena_cache (fun c -> Arena_cache.find c ~key) with
      | Some a ->
          Mutex.protect ctx.lock (fun () ->
              ctx.n_arena_hits <- ctx.n_arena_hits + 1);
          Tm.incr m_arena_hits;
          a
      | None ->
          if ctx.arena_cache <> None then begin
            Mutex.protect ctx.lock (fun () ->
                ctx.n_arena_misses <- ctx.n_arena_misses + 1);
            Tm.incr m_arena_misses
          end;
          let t0 = Unix.gettimeofday () in
          let a =
            Tm.span ("arena/" ^ app.Workloads.name) (fun () ->
                Arena.build ~events:ctx.ev (model ctx app ~input))
          in
          let dt = Unix.gettimeofday () -. t0 in
          Mutex.protect ctx.lock (fun () ->
              ctx.n_arena_builds <- ctx.n_arena_builds + 1;
              ctx.arena_seconds <- ctx.arena_seconds +. dt);
          Tm.incr m_arena_builds;
          Option.iter (fun c -> Arena_cache.store c ~key a) ctx.arena_cache;
          a)

let lbr_predictor kb () =
  let p = Tage_scl.predictor (Sizes.for_budget ~kb) in
  fun ~pc ~taken ->
    let pred = p.Predictor.predict ~pc in
    p.train ~pc ~taken;
    pred = taken

let profile_key ctx app ~inputs ~kb =
  Printf.sprintf "%s/%s/%d/%d" app.Workloads.name
    (String.concat "," (List.map string_of_int inputs))
    kb ctx.ev

(* Stage the LBR baseline once: the compiled TAGE-SC-L kernel fills a
   verdict bitmap in one monomorphic pass, and both profiling passes
   read it. *)
let profile_arena ?max_samples ~kb arena =
  let n = Arena.length arena in
  let verdicts = Bytes.create n in
  (Tage_scl.compiled (Sizes.for_budget ~kb)).Predictor.Compiled.fill ~arena ~n
    ~verdicts;
  Profile.collect_verdicts ?max_samples ~lengths:Workloads.lengths ~events:n
    ~arena ~verdicts ()

let profile ?(inputs = [ 0 ]) ?baseline_kb ctx app =
  let kb = Option.value baseline_kb ~default:ctx.base_kb in
  let key = profile_key ctx app ~inputs ~kb in
  memo ctx ctx.profiles key (fun () ->
      Tm.span ("profile/" ^ app.Workloads.name) @@ fun () ->
      Tm.incr m_profiles;
      let one input =
        match ctx.replay_mode with
        | `Arena -> profile_arena ~kb (arena ctx app ~input)
        | `Closure ->
            Profile.collect ~lengths:Workloads.lengths ~events:ctx.ev
              ~make_source:(fun () -> source ctx app ~input)
              ~make_predictor:(lbr_predictor kb) ()
      in
      match inputs with
      | [ input ] -> one input
      | inputs -> Profile.merge (List.map one inputs))

(* [jobs] defaults to 1 — most callers (experiment tables, batch tasks)
   already run inside a domain pool, where nested fan-out would
   oversubscribe.  Only top-level callers (the CLI analyze command)
   should pass the user's [-j], and may thread their persistent [pool]
   through so consecutive analyses reuse the same worker domains. *)
let whisper_analysis ?(config = Whisper_core.Config.default)
    ?(train_inputs = [ 0 ]) ?(jobs = 1) ?pool ctx app =
  let p = profile ~inputs:train_inputs ctx app in
  Whisper_core.Analyze.run ~config ~jobs ?pool p

(* The one Whisper plan path, memoized like [run_key] minus the test
   input; runtimes only read the plan, so sharing it is safe.  The
   injection plan's correlation pass consumes a fixed-length trace
   (Inject.default_trace_events) regardless of [ctx.ev]; replay it from
   the packed arena when the arena covers it, otherwise fall back to a
   fresh closure source.  Both emit the same stream prefix, so the plan
   is identical either way (as it is for any [jobs]). *)
let plan_for ?(jobs = 1) ?pool ctx app ~train_inputs ~kb config =
  let key =
    Printf.sprintf "%s/%s/%s/%d/%d" app.Workloads.name
      (technique_key (Whisper config))
      (String.concat "," (List.map string_of_int train_inputs))
      kb ctx.ev
  in
  memo ctx ctx.plans key (fun () ->
      let prof = profile ~inputs:train_inputs ~baseline_kb:kb ctx app in
      let analysis = Whisper_core.Analyze.run ~config ~jobs ?pool prof in
      let cfg = cfg_of ctx app in
      let train_input = List.hd train_inputs in
      let plan_source =
        match ctx.replay_mode with
        | `Arena when ctx.ev >= Whisper_core.Inject.default_trace_events ->
            Arena.source (arena ctx app ~input:train_input)
        | `Arena | `Closure -> source ctx app ~input:train_input
      in
      Whisper_core.Inject.plan config cfg ~source:plan_source
        ~hints:(Whisper_core.Analyze.to_inject_hints analysis cfg))

let whisper_plan ?(config = Whisper_core.Config.default)
    ?(train_inputs = [ 0 ]) ?(jobs = 1) ?pool ctx app =
  plan_for ~jobs ?pool ctx app ~train_inputs ~kb:ctx.base_kb config

(* Offline training shared by both replay paths: each of these returns a
   fresh technique runtime whose state is independent of how events will
   be fed to it, so the closure and arena execs below stay byte-identical
   by construction. *)
let baseline_of ~kb = Tage_scl.predictor (Sizes.for_budget ~kb)

(* Trained specs are memoized per profile key like the plans above:
   runtimes only read them.  A miss alone trains, inside a
   [train/<app>/<technique>] span. *)
let train_span app technique f =
  Tm.span
    (Printf.sprintf "train/%s/%s" app.Workloads.name (technique_name technique))
    f

let rombf_runtime ctx app ~train_inputs ~kb n =
  let key = (profile_key ctx app ~inputs:train_inputs ~kb, n) in
  let spec =
    once ctx ctx.rombfs key (fun () ->
        let prof = profile ~inputs:train_inputs ~baseline_kb:kb ctx app in
        train_span app (Rombf n) @@ fun () ->
        Tm.incr m_rombf_trained;
        Whisper_rombf.Rombf.train ~n prof)
  in
  Whisper_rombf.Rombf.Runtime.create spec ~baseline:(baseline_of ~kb)

(* Every budget takes a prefix of one walk per profile, so the walk is
   memoized by profile key and each budget's spec by its bytes. *)
let branchnet_runtime ctx app ~train_inputs ~kb budget =
  let pkey = profile_key ctx app ~inputs:train_inputs ~kb in
  let spec =
    once ctx ctx.branchnets (pkey, budget) (fun () ->
        let walk =
          memo ctx ctx.walks pkey (fun () ->
              Whisper_branchnet.Branchnet.walk
                ~on_train:(fun () -> Tm.incr m_branchnet_trained)
                (profile ~inputs:train_inputs ~baseline_kb:kb ctx app))
        in
        train_span app (Branchnet budget) (fun () ->
            Whisper_branchnet.Branchnet.take walk budget))
  in
  Whisper_branchnet.Branchnet.Runtime.create spec ~baseline:(baseline_of ~kb)

let whisper_runtime ctx app ~train_inputs ~kb config =
  Whisper_core.Runtime.create config ~baseline:(baseline_of ~kb)
    ~plan:(plan_for ctx app ~train_inputs ~kb config)

(* Build the per-event exec closure for a technique (closure replay). *)
let make_exec ctx app technique ~train_inputs ~kb =
  match technique with
  | Baseline ->
      let p = baseline_of ~kb in
      fun (e : Branch.event) ->
        let pred = p.Predictor.predict ~pc:e.pc in
        p.train ~pc:e.pc ~taken:e.taken;
        pred = e.taken
  | Ideal -> fun (_ : Branch.event) -> true
  | Mtage_sc ->
      let p = Mtage.predictor () in
      fun (e : Branch.event) ->
        let pred = p.Predictor.predict ~pc:e.pc in
        p.train ~pc:e.pc ~taken:e.taken;
        pred = e.taken
  | Rombf n ->
      let rt = rombf_runtime ctx app ~train_inputs ~kb n in
      fun e -> Whisper_rombf.Rombf.Runtime.exec rt e
  | Branchnet budget ->
      let rt = branchnet_runtime ctx app ~train_inputs ~kb budget in
      fun e -> Whisper_branchnet.Branchnet.Runtime.exec rt e
  | Whisper config ->
      let rt = whisper_runtime ctx app ~train_inputs ~kb config in
      fun e -> Whisper_core.Runtime.exec rt e

(* bit [i] of an arena's taken bitmap *)
let[@inline] taken_at bits i =
  Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* Same runtimes over a packed arena, each as one staged fill the
   machine dispatches to once per run.  The online baselines run their
   compiled kernels ({!Whisper_bpu.Predictor.Compiled}) and the ideal
   oracle is [Machine.Oracle].  A trained runtime runs its decision
   function over the arena first, then the TAGE-SC-L kernel fills the
   events it left uncovered ({!Tage_scl.hybrid}).  The decision
   closures read the arena's arrays directly: a call to the [Arena]
   accessors is not inlined across modules. *)
let make_exec_arena ctx app technique ~train_inputs ~kb ~arena:a =
  let hybrid decide =
    Whisper_pipeline.Machine.Compiled
      (Tage_scl.hybrid (Sizes.for_budget ~kb) ~decide)
  in
  let pcs = a.Arena.pc and blocks = a.Arena.block and bits = a.Arena.taken in
  match technique with
  | Baseline ->
      Whisper_pipeline.Machine.Compiled
        (Tage_scl.compiled (Sizes.for_budget ~kb)).Predictor.Compiled.fill
  | Ideal -> Whisper_pipeline.Machine.Oracle
  | Mtage_sc ->
      Whisper_pipeline.Machine.Compiled
        (Mtage.compiled ()).Predictor.Compiled.fill
  | Rombf n ->
      let rt = rombf_runtime ctx app ~train_inputs ~kb n in
      hybrid (fun i ->
          Whisper_rombf.Rombf.Runtime.decide rt ~pc:(Array.unsafe_get pcs i)
            ~taken:(taken_at bits i))
  | Branchnet budget ->
      let rt = branchnet_runtime ctx app ~train_inputs ~kb budget in
      hybrid (fun i ->
          Whisper_branchnet.Branchnet.Runtime.decide rt
            ~pc:(Array.unsafe_get pcs i) ~taken:(taken_at bits i))
  | Whisper config ->
      let rt = whisper_runtime ctx app ~train_inputs ~kb config in
      hybrid (fun i ->
          Whisper_core.Runtime.decide rt
            ~block:(Array.unsafe_get blocks i)
            ~pc:(Array.unsafe_get pcs i) ~taken:(taken_at bits i))

let run_key ctx app technique ~train_inputs ~test_input ~kb =
  Printf.sprintf "%s/%s/%s/%d/%d/%d" app.Workloads.name
    (technique_key technique)
    (String.concat "," (List.map string_of_int train_inputs))
    test_input kb ctx.ev

let bump_hit ctx =
  Mutex.protect ctx.lock (fun () -> ctx.n_hits <- ctx.n_hits + 1);
  Tm.incr m_cache_hits

let bump_miss ctx =
  Mutex.protect ctx.lock (fun () -> ctx.n_misses <- ctx.n_misses + 1);
  Tm.incr m_cache_misses

(* What a quarantined work item reports: NaN for every cycle/stall
   account (rendered as DEGRADED in tables), zeros elsewhere.  The row
   survives in the output so a chaos run still prints a full table. *)
let degraded_result () =
  {
    Whisper_pipeline.Machine.cycles = Float.nan;
    instrs = 0;
    branches = 0;
    mispredicts = 0;
    misp_stall = Float.nan;
    fe_stall = Float.nan;
    btb_stall = Float.nan;
    l1i_misses = 0;
    exposed_misses = 0;
    seg_mispredicts = Array.make 10 0;
    seg_instrs = Array.make 10 0;
  }

let quarantined ctx =
  Mutex.protect ctx.lock (fun () ->
      Hashtbl.fold (fun k e acc -> (k, e) :: acc) ctx.quarantine []
      |> List.sort compare)

(* External quarantine entry point for the sweep supervisor: items that
   killed their worker process never raise inside this process, so the
   supervisor marks them here and {!run} reports them degraded instead
   of silently recomputing them inline at aggregation time. *)
let note_quarantined ctx ~key err =
  Mutex.protect ctx.lock (fun () -> Hashtbl.replace ctx.quarantine key err)

let run ?(train_inputs = [ 0 ]) ?(test_input = 1) ?baseline_kb ctx app
    technique =
  let kb = Option.value baseline_kb ~default:ctx.base_kb in
  let key = run_key ctx app technique ~train_inputs ~test_input ~kb in
  if Mutex.protect ctx.lock (fun () -> Hashtbl.mem ctx.quarantine key) then begin
    Tm.incr m_degraded;
    degraded_result ()
  end
  else
    memo ctx ctx.results key (fun () ->
        match Option.bind ctx.cache (fun c -> Result_cache.find c ~key) with
        | Some r ->
            bump_hit ctx;
            r
        | None ->
            if ctx.cache <> None then bump_miss ctx;
            let t0 = Unix.gettimeofday () in
            let r =
              Tm.span
                (Printf.sprintf "sim/%s/%s" app.Workloads.name
                   (technique_name technique))
              @@ fun () ->
              match ctx.replay_mode with
              | `Arena ->
                  let a = arena ctx app ~input:test_input in
                  let exec =
                    make_exec_arena ctx app technique ~train_inputs ~kb
                      ~arena:a
                  in
                  Whisper_pipeline.Machine.run_arena_exec ~events:ctx.ev
                    ~arena:a ~exec ()
              | `Closure ->
                  let exec = make_exec ctx app technique ~train_inputs ~kb in
                  Whisper_pipeline.Machine.run ~events:ctx.ev
                    ~source:(source ctx app ~input:test_input)
                    ~predict:exec ()
            in
            let dt = Unix.gettimeofday () -. t0 in
            Mutex.protect ctx.lock (fun () ->
                ctx.n_sims <- ctx.n_sims + 1;
                ctx.sim_seconds <- ctx.sim_seconds +. dt);
            Tm.incr m_sims;
            Option.iter (fun c -> Result_cache.store c ~key r) ctx.cache;
            r)

(* ------------------------------------------------------------------ *)
(* Declarative work items and the parallel batch driver               *)
(* ------------------------------------------------------------------ *)

type work =
  | Sim of {
      app : Workloads.config;
      technique : technique;
      train_inputs : int list;
      test_input : int;
      baseline_kb : int option;
    }
  | Collect of {
      app : Workloads.config;
      inputs : int list;
      baseline_kb : int option;
    }
  | Prepare of { app : Workloads.config; input : int }
      (* internal: build/load one (app, input) arena before the phases
         that replay it fan out, so racing domains never build the same
         arena twice *)

let sim ?(train_inputs = [ 0 ]) ?(test_input = 1) ?baseline_kb app technique =
  Sim { app; technique; train_inputs; test_input; baseline_kb }

let collect ?(inputs = [ 0 ]) ?baseline_kb app =
  Collect { app; inputs; baseline_kb }

let work_key ctx = function
  | Sim w ->
      run_key ctx w.app w.technique ~train_inputs:w.train_inputs
        ~test_input:w.test_input
        ~kb:(Option.value w.baseline_kb ~default:ctx.base_kb)
  | Collect w ->
      "profile/"
      ^ profile_key ctx w.app ~inputs:w.inputs
          ~kb:(Option.value w.baseline_kb ~default:ctx.base_kb)
  | Prepare w -> arena_key ctx w.app ~input:w.input

let exec_work ctx = function
  | Sim w ->
      ignore
        (run ~train_inputs:w.train_inputs ~test_input:w.test_input
           ?baseline_kb:w.baseline_kb ctx w.app w.technique)
  | Collect w ->
      ignore (profile ~inputs:w.inputs ?baseline_kb:w.baseline_kb ctx w.app)
  | Prepare w -> ignore (arena ctx w.app ~input:w.input)

(* Whether a Sim's result is already memoized or in the persistent
   cache: it then needs neither training (hence no profile) nor an
   arena. *)
let sim_cached ctx sim =
  let key = work_key ctx sim in
  Hashtbl.mem ctx.results key
  || Option.fold ~none:false
       ~some:(fun c -> Sys.file_exists (Result_cache.path c ~key))
       ctx.cache

(* Profiles a Sim's training step will need, declared explicitly so the
   batch driver can collect each one exactly once before the simulations
   fan out (instead of racing domains re-collecting the same profile). *)
let implied_collects ctx works =
  List.filter_map
    (function
      | Sim w as sim
        when technique_needs_profile w.technique && not (sim_cached ctx sim)
        ->
          let kb = Option.value w.baseline_kb ~default:ctx.base_kb in
          Some (collect ~inputs:w.train_inputs ~baseline_kb:kb w.app)
      | Sim _ | Collect _ | Prepare _ -> None)
    works

(* The arenas the collect and sim phases will replay, one Prepare item
   per distinct (app, input).  Quarantining a Prepare under chaos is
   harmless: the consumer simply rebuilds the arena inline. *)
let implied_arenas ctx ~collects ~simulations =
  if ctx.replay_mode <> `Arena then []
  else
    let seen = Hashtbl.create 16 in
    let add acc app input =
      let k = arena_key ctx app ~input in
      if Hashtbl.mem seen k || Hashtbl.mem ctx.arenas k then acc
      else begin
        Hashtbl.add seen k ();
        Prepare { app; input } :: acc
      end
    in
    let acc =
      List.fold_left
        (fun acc -> function
          | Collect w -> List.fold_left (fun acc i -> add acc w.app i) acc w.inputs
          | Sim _ | Prepare _ -> acc)
        [] collects
    in
    let acc =
      List.fold_left
        (fun acc -> function
          | Sim w as sim ->
              if sim_cached ctx sim then acc else add acc w.app w.test_input
          | Collect _ | Prepare _ -> acc)
        acc simulations
    in
    List.rev acc

let dedup ctx works =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun w ->
      let k = work_key ctx w in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    works

(* Chaos/degraded batch execution: each work item runs under the fault
   injector and the retry/timeout policy.  Items that exhaust their
   attempts are quarantined — the batch itself never fails, and callers
   later reading the item via {!run} get a {!degraded_result}. *)
let run_phase_degraded ctx works =
  let arr = Array.of_list works in
  let task ~attempt w =
    if attempt > 1 then begin
      Mutex.protect ctx.lock (fun () -> ctx.n_retries <- ctx.n_retries + 1);
      Tm.incr m_retries
    end;
    let key = work_key ctx w in
    let body () = exec_work ctx w in
    let run_it =
      match ctx.fault with
      | None -> body
      | Some f ->
          fun () -> Whisper_util.Fault.wrap f ~key:("task/" ^ key) ~attempt body
    in
    try run_it ()
    with e ->
      Mutex.protect ctx.lock (fun () -> ctx.n_observed <- ctx.n_observed + 1);
      raise e
  in
  Whisper_util.Pool.map_retry ~jobs:ctx.n_jobs ~policy:ctx.policy task arr
  |> Array.iteri (fun i res ->
         match res with
         | Ok () -> ()
         | Error e ->
             let key = work_key ctx arr.(i) in
             let err =
               Whisper_util.Whisper_error.of_exn ~context:key
                 Whisper_util.Whisper_error.Task e
             in
             (* terminal timeouts never raised inside [task], so they
                have not been counted as observed yet *)
             let timed_out =
               match err.Whisper_util.Whisper_error.kind with
               | Whisper_util.Whisper_error.Timeout _ -> true
               | _ -> false
             in
             Tm.incr m_quarantined;
             Mutex.protect ctx.lock (fun () ->
                 if timed_out then ctx.n_observed <- ctx.n_observed + 1;
                 Hashtbl.replace ctx.quarantine key err))

let run_phase ctx works =
  match works with
  | [] -> ()
  | works
    when ctx.fault <> None || ctx.policy <> Whisper_util.Pool.default_policy ->
      run_phase_degraded ctx works
  | [ w ] -> exec_work ctx w
  | works when ctx.n_jobs <= 1 -> List.iter (exec_work ctx) works
  | works ->
      (* phases are short and batches run many of them: reuse the
         process-wide pool instead of spawning domains per phase *)
      let pool = Whisper_util.Pool.shared ~jobs:ctx.n_jobs in
      Whisper_util.Pool.map_pool pool (exec_work ctx) (Array.of_list works)
      |> Array.iter (function Ok () -> () | Error e -> raise e)

let run_batch ctx works =
  let works = dedup ctx works in
  let collects, simulations =
    List.partition (function Collect _ | Prepare _ -> true | Sim _ -> false)
      works
  in
  let collects = dedup ctx (collects @ implied_collects ctx simulations) in
  run_phase ctx (implied_arenas ctx ~collects ~simulations);
  run_phase ctx collects;
  run_phase ctx simulations

let fault_summary ctx =
  let injected =
    match ctx.fault with
    | None -> 0
    | Some f -> Whisper_util.Fault.injected f
  in
  let cache_write_failures, cache_corrupt_dropped =
    let rw, rd =
      match ctx.cache with
      | None -> (0, 0)
      | Some c ->
          let k = Result_cache.counters c in
          (k.Result_cache.write_failures, k.Result_cache.corrupt_dropped)
    in
    let aw, ad =
      match ctx.arena_cache with
      | None -> (0, 0)
      | Some c ->
          let k = Arena_cache.counters c in
          (k.Arena_cache.write_failures, k.Arena_cache.corrupt_dropped)
    in
    (rw + aw, rd + ad)
  in
  Mutex.protect ctx.lock (fun () ->
      {
        Report.injected;
        observed = ctx.n_observed;
        retries = ctx.n_retries;
        quarantined = Hashtbl.length ctx.quarantine;
        cache_write_failures;
        cache_corrupt_dropped;
      })

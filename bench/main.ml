(* Benchmark harness.

   Part 1 — Bechamel micro-benchmarks of the hot primitives (formula
   evaluation, history hashing, predictor lookups, Algorithm 1, the
   randomized trainer, codec and timing-model throughput).

   Part 2 — regeneration of every table and figure of the paper's
   evaluation (one entry per table/figure; see DESIGN.md §4), printing the
   same rows/series the paper reports.

   Part 3 — ablation benches for the design choices DESIGN.md calls out:
   history-hash operation (XOR/AND/OR) and hint-buffer size.

   Environment:
     WHISPER_EVENTS      branch events per simulation   (default 800_000)
     WHISPER_SKIP_MICRO  set to skip part 1
     WHISPER_ONLY        comma-separated experiment ids for part 2
     WHISPER_JOBS        worker domains for part 2's independent
                         simulations (default: recommended domain count)
     WHISPER_CACHE_DIR   enable the persistent result cache rooted at
                         this directory (default: no cache, so figure
                         timings always measure real simulations)
     WHISPER_FAULTS      chaos mode: per-work-item fault probability
                         (default 0.0; failing items are retried, then
                         reported as DEGRADED rows)
     WHISPER_FAULT_SEED  seed of the fault injector (default 42)
     WHISPER_BENCH_SMOKE        short mode for parts 1b/1c/1d (CI)
     WHISPER_SEARCH_BENCH_ONLY  run only part 1b, then exit
     WHISPER_REPLAY_BENCH_ONLY  run only part 1c, then exit
     WHISPER_SERVE_BENCH_ONLY   run only part 1d, then exit
     WHISPER_BENCH_OUT          part 1b output (default BENCH_search.json)
     WHISPER_REPLAY_OUT         part 1c output (default BENCH_replay.json)
     WHISPER_SERVE_OUT          part 1d output (default BENCH_serve.json) *)

open Bechamel
open Toolkit
open Whisper_trace

let env_int name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let events = env_int "WHISPER_EVENTS" 800_000
let jobs = env_int "WHISPER_JOBS" (Whisper_util.Pool.default_jobs ())
let cache_dir = Sys.getenv_opt "WHISPER_CACHE_DIR"

let faults =
  match Sys.getenv_opt "WHISPER_FAULTS" with
  | Some v -> float_of_string v
  | None -> 0.0

let fault_seed = env_int "WHISPER_FAULT_SEED" 42

(* ------------------------------------------------------------------ *)
(* Part 1: micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let rng = Whisper_util.Rng.create 42 in
  let tree = Whisper_formula.Tree.of_id ~leaves:8 0x2F31 in
  let tt = Whisper_formula.Tree.truth_table tree in
  let hist = Whisper_util.History.create ~depth:2048 in
  let folded =
    Array.map
      (fun len -> Whisper_util.History.Folded.create ~len ~chunk:8)
      Workloads.lengths
  in
  let tage = Whisper_bpu.Tage_scl.predictor Whisper_bpu.Sizes.standard in
  let app = Option.get (Workloads.by_name "cassandra") in
  let cfg = Workloads.build_cfg app in
  let model = App_model.create ~cfg ~config:app ~input:0 () in
  let src = App_model.source model in
  let buf = Whisper_core.Hint_buffer.create ~size:32 in
  let hint =
    Whisper_core.Brhint.make ~len_idx:5 ~formula_id:123
      ~bias:Whisper_core.Brhint.Formula ~pc_offset:40
  in
  (* small Algorithm 1 instance *)
  let taken = Array.init 256 (fun i -> if i land 3 = 0 then 5 else 0) in
  let not_taken = Array.init 256 (fun i -> if i land 3 = 1 then 3 else 0) in
  let tables = Whisper_core.Algorithm1.tables_of_counts ~taken ~not_taken in
  let rnd = Whisper_core.Randomized.create Whisper_core.Config.default in
  let cands = Whisper_core.Randomized.candidates rnd in
  let counter = ref 0 in
  [
    Test.make ~name:"formula-eval (tree walk)"
      (Staged.stage (fun () ->
           ignore (Whisper_formula.Tree.eval tree (!counter land 0xFF));
           incr counter));
    Test.make ~name:"formula-eval (truth table)"
      (Staged.stage (fun () ->
           ignore (Whisper_formula.Tree.eval_tt tt (!counter land 0xFF));
           incr counter));
    Test.make ~name:"truth-table build (256 entries)"
      (Staged.stage (fun () -> ignore (Whisper_formula.Tree.truth_table tree)));
    Test.make ~name:"folded-history push (16 lengths)"
      (Staged.stage (fun () ->
           Whisper_util.History.push_all hist folded (Whisper_util.Rng.bool rng)));
    Test.make ~name:"tage-scl predict+train"
      (Staged.stage (fun () ->
           let pc = 0x40_0000 + (!counter land 0xFFF) * 4 in
           incr counter;
           let p = tage.Whisper_bpu.Predictor.predict ~pc in
           tage.train ~pc ~taken:(p || !counter land 7 = 0)));
    Test.make ~name:"app-model event generation"
      (Staged.stage (fun () -> ignore (src ())));
    Test.make ~name:"algorithm1 (32 candidate formulas)"
      (Staged.stage (fun () ->
           ignore
             (Whisper_core.Algorithm1.find tables ~candidates:cands
                ~truth_of:(Whisper_core.Randomized.truth_of rnd))));
    Test.make ~name:"hint-buffer insert+probe"
      (Staged.stage (fun () ->
           Whisper_core.Hint_buffer.insert buf ~branch_pc:(!counter land 63)
             (!counter land 0xFF);
           ignore
             (Whisper_core.Hint_buffer.probe buf ~branch_pc:(!counter land 63));
           incr counter));
    Test.make ~name:"brhint encode+decode"
      (Staged.stage (fun () ->
           ignore (Whisper_core.Brhint.decode (Whisper_core.Brhint.encode hint))));
  ]

let run_micro () =
  let tests = micro_tests () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let cfg_b =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  Printf.printf "== micro-benchmarks ==\n%!";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg_b [ Instance.monotonic_clock ] elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          let ns =
            match Analyze.OLS.estimates est with
            | Some [ v ] -> v
            | _ -> nan
          in
          Printf.printf "  %-36s %10.1f ns/op\n%!" (Test.Elt.name elt) ns)
        (Test.elements test))
    tests

(* ------------------------------------------------------------------ *)
(* Part 1b: search-engine benchmark (BENCH_search.json)               *)
(* ------------------------------------------------------------------ *)

(* Times the bit-parallel Algorithm-1 engine against the retained naive
   reference path on a real datacenter profile, checks the two agree on
   every branch, and writes the numbers to a machine-readable JSON file
   so the perf trajectory is tracked across PRs.

   Extra environment:
     WHISPER_BENCH_SMOKE  short mode for CI (small trace, short timing
                          windows)
     WHISPER_BENCH_OUT    output path (default BENCH_search.json) *)

(* ns per call of [f], timed over an adaptively grown repetition count so
   short-running closures still get a stable window. *)
let time_ns ?(min_s = 0.2) f =
  let rec go reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < min_s then go (reps * 4)
    else 1e9 *. dt /. float_of_int reps
  in
  go 1

let search_bench () =
  let smoke = Sys.getenv_opt "WHISPER_BENCH_SMOKE" <> None in
  let n_events = if smoke then 120_000 else min events 600_000 in
  let min_s = if smoke then 0.05 else 0.3 in
  Printf.printf "== search-engine benchmark (cassandra, %d events%s) ==\n%!"
    n_events
    (if smoke then ", smoke mode" else "");
  let app = Option.get (Workloads.by_name "cassandra") in
  let ctx = Whisper_sim.Runner.create_ctx ~events:n_events ~baseline_kb:64 () in
  let profile = Whisper_sim.Runner.profile ctx app in
  let config = Whisper_core.Config.default in
  let rnd = Whisper_core.Randomized.create config in
  let cands = Whisper_core.Randomized.candidates rnd in
  let packed = Whisper_core.Randomized.packed_candidates rnd in
  let nc = Array.length cands in
  let pcs = Profile.candidates profile in
  let n_pcs = Array.length pcs in
  (* --- scoring primitives, on the hottest branch's mid-length tables *)
  let taken = Array.make 256 0 and not_taken = Array.make 256 0 in
  Profile.iter_samples profile ~pc:pcs.(0)
    ~f:(fun ~raw8:_ ~raw56:_ ~hash ~taken:tk ~correct:_ ->
      let k = hash (config.n_lengths / 2) in
      if tk then taken.(k) <- taken.(k) + 1
      else not_taken.(k) <- not_taken.(k) + 1);
  let tables = Whisper_core.Algorithm1.tables_of_counts ~taken ~not_taken in
  let truths = Array.map (Whisper_core.Randomized.truth_of rnd) cands in
  let sink = ref 0 in
  let fnc = float_of_int nc in
  let naive_score_ns =
    time_ns ~min_s (fun () ->
        for i = 0 to nc - 1 do
          sink :=
            !sink + Whisper_core.Algorithm1.mispredictions tables ~truth:truths.(i)
        done)
    /. fnc
  in
  let packed_score_ns =
    time_ns ~min_s (fun () ->
        for i = 0 to nc - 1 do
          sink :=
            !sink
            + Whisper_core.Algorithm1.mispredictions_packed tables
                ~ptruth:packed.(i)
        done)
    /. fnc
  in
  (* --- full formula search, aggregated over every candidate branch's
     mid-length tables: one number per engine for the whole profile's
     search workload rather than a single cherry-picked branch *)
  let fn_pcs = float_of_int (max 1 n_pcs) in
  let mid = config.Whisper_core.Config.n_lengths / 2 in
  let all_tables =
    Array.map
      (fun pc ->
        Array.fill taken 0 256 0;
        Array.fill not_taken 0 256 0;
        Profile.iter_samples profile ~pc
          ~f:(fun ~raw8:_ ~raw56:_ ~hash ~taken:tk ~correct:_ ->
            let k = hash mid in
            if tk then taken.(k) <- taken.(k) + 1
            else not_taken.(k) <- not_taken.(k) + 1);
        Whisper_core.Algorithm1.tables_of_counts ~taken ~not_taken)
      pcs
  in
  let find_ns =
    time_ns ~min_s (fun () ->
        Array.iter
          (fun t ->
            ignore
              (Whisper_core.Algorithm1.find t ~candidates:cands
                 ~truth_of:(Whisper_core.Randomized.truth_of rnd)))
          all_tables)
    /. fn_pcs
  in
  let find_packed_ns =
    time_ns ~min_s (fun () ->
        Array.iter
          (fun t ->
            ignore
              (Whisper_core.Algorithm1.find_packed t ~candidates:cands ~packed))
          all_tables)
    /. fn_pcs
  in
  (* --- the complete per-branch formula search: all history lengths of
     every candidate branch, identical prebuilt tables on both sides.
     The naive reference scores every candidate at every length exactly
     as the seed pipeline did; the packed engine threads the running
     best across lengths ([find_packed_below]) so its floor entry check
     and suffix bound can abandon hopeless lengths and candidates —
     winners are asserted identical *)
  let nl = config.Whisper_core.Config.n_lengths in
  let length_tables =
    Array.map
      (fun pc ->
        Array.init nl (fun l ->
            Array.fill taken 0 256 0;
            Array.fill not_taken 0 256 0;
            Profile.iter_samples profile ~pc
              ~f:(fun ~raw8:_ ~raw56:_ ~hash ~taken:tk ~correct:_ ->
                let k = hash l in
                if tk then taken.(k) <- taken.(k) + 1
                else not_taken.(k) <- not_taken.(k) + 1);
            Whisper_core.Algorithm1.tables_of_counts ~taken ~not_taken))
      pcs
  in
  let search_naive tl =
    let best_l = ref (-1) and best_f = ref (-1) and best_m = ref max_int in
    for l = 0 to nl - 1 do
      let f, m =
        Whisper_core.Algorithm1.find tl.(l) ~candidates:cands
          ~truth_of:(Whisper_core.Randomized.truth_of rnd)
      in
      if m < !best_m then begin
        best_m := m;
        best_l := l;
        best_f := f
      end
    done;
    (!best_l, !best_f, !best_m)
  in
  let search_packed tl =
    let best_l = ref (-1) and best_f = ref (-1) and best_m = ref max_int in
    for l = 0 to nl - 1 do
      match
        Whisper_core.Algorithm1.find_packed_below tl.(l) ~candidates:cands
          ~packed ~cutoff:!best_m
      with
      | Some (_, f, m) ->
          best_m := m;
          best_l := l;
          best_f := f
      | None -> ()
    done;
    (!best_l, !best_f, !best_m)
  in
  Array.iter
    (fun tl ->
      if search_naive tl <> search_packed tl then
        failwith "packed search disagrees with naive search")
    length_tables;
  let search_naive_ns =
    time_ns ~min_s (fun () ->
        Array.iter (fun tl -> ignore (search_naive tl)) length_tables)
    /. fn_pcs
  in
  let search_packed_ns =
    time_ns ~min_s (fun () ->
        Array.iter (fun tl -> ignore (search_packed tl)) length_tables)
    /. fn_pcs
  in
  let tree = Whisper_core.Randomized.tree_of rnd cands.(0) in
  let tt_build_ns =
    time_ns ~min_s (fun () -> ignore (Whisper_formula.Tree.truth_table tree))
  in
  let packed_build_ns =
    time_ns ~min_s (fun () ->
        ignore (Whisper_formula.Tree.packed_truth_table tree))
  in
  (* --- end-to-end per-branch search, optimized vs naive reference *)
  let scratch = Whisper_core.History_select.scratch config in
  Array.iter
    (fun pc ->
      let opt = Whisper_core.History_select.decide ~scratch config rnd profile ~pc in
      let ref_ = Whisper_core.History_select.Reference.decide config rnd profile ~pc in
      if opt <> ref_ then
        failwith (Printf.sprintf "optimized decide disagrees at pc=0x%x" pc))
    pcs;
  let decide_ref_ns =
    time_ns ~min_s (fun () ->
        Array.iter
          (fun pc ->
            ignore
              (Whisper_core.History_select.Reference.decide config rnd profile
                 ~pc))
          pcs)
    /. fn_pcs
  in
  let decide_opt_ns =
    time_ns ~min_s (fun () ->
        Array.iter
          (fun pc ->
            ignore
              (Whisper_core.History_select.decide ~scratch config rnd profile ~pc))
          pcs)
    /. fn_pcs
  in
  (* --- whole-sweep analysis throughput, sequential vs the persistent
     chunk-claiming scheduler at 2 and 4 claimers.  The pool is created
     once, outside every timed region — amortizing domain spawn across
     the fleet's analyses is the point of the persistent scheduler (the
     old per-call pool spent more on spawning than on searching, which
     is where the recorded 0.47x went).  Decisions are asserted
     identical to sequential at every width before any timing is
     trusted; timings are a min-of-3 so millisecond-scale runs are not
     at the mercy of one scheduler hiccup.  In smoke mode the sweep is
     the one cassandra profile (CI time budget); the full bench analyzes
     every datacenter app.  The parallel leg must actually be parallel:
     in smoke mode (CI containers often default to one domain) force at
     least two claimers, and record the width actually used, not the env
     default. *)
  let sweep_profiles =
    if smoke then [| profile |]
    else
      Array.map
        (fun a -> Whisper_sim.Runner.profile ctx a)
        Workloads.datacenter
  in
  let n_sweep = Array.length sweep_profiles in
  let used_jobs = max 2 jobs in
  let host_cores = Domain.recommended_domain_count () in
  let pool = Whisper_util.Pool.shared ~jobs:(max 4 used_jobs - 1) in
  let analyze ~jobs:j p =
    if j <= 1 then Whisper_core.Analyze.run ~config ~jobs:1 p
    else Whisper_core.Analyze.run ~config ~jobs:j ~pool p
  in
  let a1s = Array.map (fun p -> analyze ~jobs:1 p) sweep_profiles in
  let hints =
    Array.fold_left
      (fun acc a -> acc + Whisper_core.Analyze.hint_count a)
      0 a1s
  in
  List.iter
    (fun j ->
      Array.iteri
        (fun i p ->
          let aj = analyze ~jobs:j p in
          if
            aj.Whisper_core.Analyze.decisions
            <> a1s.(i).Whisper_core.Analyze.decisions
          then
            failwith
              (Printf.sprintf "parallel analysis disagrees with sequential (-j%d)" j))
        sweep_profiles)
    (List.sort_uniq compare [ 2; 4; used_jobs ]);
  let time_sweep j =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t =
        Array.fold_left
          (fun acc p ->
            acc +. (analyze ~jobs:j p).Whisper_core.Analyze.training_seconds)
          0.0 sweep_profiles
      in
      if t < !best then best := t
    done;
    !best
  in
  let t1 = time_sweep 1 in
  let t2 = time_sweep 2 in
  let t4 = time_sweep 4 in
  let t_used =
    if used_jobs = 2 then t2
    else if used_jobs = 4 then t4
    else time_sweep used_jobs
  in
  let hps t = float_of_int hints /. max 1e-9 t in
  let scorer_speedup = naive_score_ns /. packed_score_ns in
  let find_speedup = find_ns /. find_packed_ns in
  let search_speedup = search_naive_ns /. search_packed_ns in
  let decide_speedup = decide_ref_ns /. decide_opt_ns in
  let parallel_speedup = t1 /. max 1e-9 t_used in
  let parallel_speedup_j2 = t1 /. max 1e-9 t2 in
  let parallel_speedup_j4 = t1 /. max 1e-9 t4 in
  Printf.printf "  mispredictions     %8.1f -> %7.1f ns/op  (%.1fx)\n"
    naive_score_ns packed_score_ns scorer_speedup;
  Printf.printf "  find (%d cands, %d pcs) %8.1f -> %7.1f ns/call  (%.1fx)\n" nc
    n_pcs find_ns find_packed_ns find_speedup;
  Printf.printf "  search (%d lengths)  %8.1f -> %7.1f ns/pc  (%.1fx)\n" nl
    search_naive_ns search_packed_ns search_speedup;
  Printf.printf "  truth-table build  %8.1f -> %7.1f ns/op  (%.1fx)\n"
    tt_build_ns packed_build_ns (tt_build_ns /. packed_build_ns);
  Printf.printf "  decide (%d pcs)   %8.1f -> %7.1f ns/op  (%.1fx)\n" n_pcs
    decide_ref_ns decide_opt_ns decide_speedup;
  Printf.printf
    "  analysis (%d apps)  %d hints, %.0f hints/s (j1); speedup %.2fx (j2), \
     %.2fx (j4); %d host cores\n\
     %!"
    n_sweep hints (hps t1) parallel_speedup_j2 parallel_speedup_j4 host_cores;
  let out = Option.value ~default:"BENCH_search.json"
      (Sys.getenv_opt "WHISPER_BENCH_OUT")
  in
  let oc = open_out out in
  Printf.fprintf oc
    {|{
  "app": "cassandra",
  "events": %d,
  "smoke": %b,
  "candidate_branches": %d,
  "candidate_formulas": %d,
  "mispredictions_ns": %.2f,
  "mispredictions_packed_ns": %.2f,
  "scorer_speedup": %.2f,
  "find_ns": %.1f,
  "find_packed_ns": %.1f,
  "find_speedup": %.2f,
  "search_naive_ns": %.1f,
  "search_packed_ns": %.1f,
  "search_speedup": %.2f,
  "truth_table_build_ns": %.1f,
  "packed_truth_table_build_ns": %.1f,
  "decide_reference_ns": %.1f,
  "decide_optimized_ns": %.1f,
  "decide_speedup": %.2f,
  "hints": %d,
  "hints_per_sec_j1": %.1f,
  "hints_per_sec_jn": %.1f,
  "sweep_apps": %d,
  "host_cores": %d,
  "jobs": %d,
  "used_jobs": %d,
  "parallel_speedup": %.2f,
  "parallel_speedup_j2": %.2f,
  "parallel_speedup_j4": %.2f,
  "parallel_identical": true
}
|}
    n_events smoke n_pcs nc naive_score_ns packed_score_ns scorer_speedup
    find_ns find_packed_ns find_speedup search_naive_ns search_packed_ns
    search_speedup tt_build_ns packed_build_ns
    decide_ref_ns decide_opt_ns decide_speedup hints (hps t1) (hps t_used)
    n_sweep host_cores used_jobs used_jobs parallel_speedup parallel_speedup_j2
    parallel_speedup_j4;
  close_out oc;
  Printf.printf "  wrote %s\n%!" out;
  ignore !sink

(* ------------------------------------------------------------------ *)
(* Part 1c: trace-replay benchmark (BENCH_replay.json)                *)
(* ------------------------------------------------------------------ *)

(* Times the packed-arena replay path against the closure-source seed
   path at three levels — raw event delivery, single-technique
   simulations, and a multi-technique batch sharing one arena — and
   asserts at every level that the two paths produce byte-identical
   results.  Numbers land in a machine-readable JSON file so the perf
   trajectory is tracked across PRs.

   Extra environment:
     WHISPER_BENCH_SMOKE   short mode for CI
     WHISPER_REPLAY_APP    workload to replay (default cassandra)
     WHISPER_REPLAY_OUT    output path (default BENCH_replay.json) *)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let replay_bench () =
  let open Whisper_sim in
  let smoke = Sys.getenv_opt "WHISPER_BENCH_SMOKE" <> None in
  let n_events = if smoke then 120_000 else min events 600_000 in
  let min_s = if smoke then 0.05 else 0.3 in
  let app_name =
    Option.value ~default:"cassandra" (Sys.getenv_opt "WHISPER_REPLAY_APP")
  in
  Printf.printf "== trace-replay benchmark (%s, %d events%s) ==\n%!" app_name
    n_events
    (if smoke then ", smoke mode" else "");
  let app = Option.get (Workloads.by_name app_name) in
  let cfg = Workloads.build_cfg app in
  let fe = float_of_int n_events in
  (* --- raw event delivery: closure generation vs arena build+replay *)
  let src = App_model.source (App_model.create ~cfg ~config:app ~input:1 ()) in
  let sink = ref 0 in
  let closure_gen_ns =
    time_ns ~min_s (fun () ->
        for _ = 1 to n_events do
          let e = src () in
          sink := !sink + e.Branch.pc + e.Branch.instrs
        done)
    /. fe
  in
  let arena =
    Arena.build ~events:n_events (App_model.create ~cfg ~config:app ~input:1 ())
  in
  let arena_build_ns =
    time_ns ~min_s (fun () ->
        ignore
          (Arena.build ~events:n_events
             (App_model.create ~cfg ~config:app ~input:1 ())))
    /. fe
  in
  let arena_replay_ns =
    time_ns ~min_s (fun () ->
        for i = 0 to n_events - 1 do
          sink :=
            !sink + Arena.pc arena i + Arena.instrs arena i
            + Bool.to_int (Arena.taken arena i)
        done)
    /. fe
  in
  (* --- per-technique simulations, closure vs arena over one ctx's
     memoized profiles, Whisper plans and ROMBF/BranchNet specs.  Each
     technique is made once, untimed, before either side is timed, so
     neither side pays training the other skips: both rows time replay
     (and runtime creation) alone, and what differs is event delivery *)
  (* the paper's technique set: every figure replays the same trace under
     all of these, which is exactly the sharing the arena amortizes *)
  (* whisper variants carry explicit labels — Runner.technique_name
     renders every config as "whisper", which made the three JSON rows
     indistinguishable (and the third variant used to repeat the default
     config verbatim; `Classic actually changes the formula family) *)
  let techniques =
    [
      ("tage-scl", Runner.Baseline);
      ("ideal", Runner.Ideal);
      ("mtage-sc", Runner.Mtage_sc);
      ("4b-rombf", Runner.Rombf 4);
      ("8b-rombf", Runner.Rombf 8);
      ("8KB-branchnet", Runner.Branchnet (Whisper_branchnet.Branchnet.Budget 8192));
      ("whisper", Runner.Whisper Whisper_core.Config.default);
      ( "whisper-hb64",
        Runner.Whisper { Whisper_core.Config.default with hint_buffer_size = 64 } );
      ( "whisper-classic",
        Runner.Whisper { Whisper_core.Config.default with ops = `Classic } );
    ]
  in
  let ctx = Runner.create_ctx ~events:n_events ~baseline_kb:64 () in
  let source () =
    App_model.source (App_model.create ~cfg ~config:app ~input:1 ())
  in
  let tech_rows =
    List.map
      (fun (label, t) ->
        ignore
          (Runner.make_exec_arena ctx app t ~train_inputs:[ 0 ] ~kb:64 ~arena);
        let closure_s, rc =
          time_once (fun () ->
              let exec = Runner.make_exec ctx app t ~train_inputs:[ 0 ] ~kb:64 in
              Whisper_pipeline.Machine.run ~events:n_events ~source:(source ())
                ~predict:exec ())
        in
        let arena_s, ra =
          time_once (fun () ->
              let exec =
                Runner.make_exec_arena ctx app t ~train_inputs:[ 0 ] ~kb:64
                  ~arena
              in
              Whisper_pipeline.Machine.run_arena_exec ~events:n_events ~arena
                ~exec ())
        in
        (* the in-bench differential-oracle assert: the compiled arena
           path must reproduce the closure path's result byte for byte *)
        if rc <> ra then
          failwith
            (Printf.sprintf "arena replay diverges from closure replay (%s)"
               label);
        (label, 1e9 *. closure_s /. fe, 1e9 *. arena_s /. fe))
      techniques
  in
  (* --- BranchNet's SGD kernel vs the per-bit oracle (test/oracle) on
     the training halves of the first 32 candidates Branchnet.train would
     walk, seeded as it seeds them.  Best of [sgd_reps] interleaved
     reps; every weight must come out bit-identical. *)
  let sgd_sets =
    let profile = Runner.profile ctx app in
    Profile.candidates profile |> Array.to_list
    |> List.filter (fun pc -> Profile.n_samples profile ~pc >= 16)
    |> List.filteri (fun i _ -> i < 32)
    |> List.map (fun pc ->
           let xs, ys =
             Whisper_oracle.Branchnet_ref.gather profile ~pc ~part:`Train
           in
           (pc lxor 0xB4A2, xs, ys))
  in
  let module M = Whisper_branchnet.Model in
  let module O = Whisper_oracle.Branchnet_ref.Model in
  let kernel_sgd () =
    List.map
      (fun (seed, xs, ys) ->
        let m = M.create ~n_lengths:7 ~seed () in
        M.train_sgd m ~xs ~ys ~epochs:12 ~lr:0.05;
        m)
      sgd_sets
  in
  let oracle_sgd () =
    List.map
      (fun (seed, xs, ys) ->
        let m = O.create ~n_lengths:7 ~seed () in
        O.train_sgd m ~xs ~ys ~epochs:12 ~lr:0.05;
        m)
      sgd_sets
  in
  let sgd_reps = 3 in
  let best_kernel = ref infinity and best_oracle = ref infinity in
  let sgd_identical = ref true in
  for _ = 1 to sgd_reps do
    let ks, km = time_once kernel_sgd in
    let os, om = time_once oracle_sgd in
    best_kernel := Float.min !best_kernel ks;
    best_oracle := Float.min !best_oracle os;
    (* Marshal writes each float's 8 bytes, so equal strings mean equal
       bits *)
    if
      Marshal.to_string (List.map M.weights km) []
      <> Marshal.to_string (List.map O.weights om) []
    then sgd_identical := false
  done;
  let sgd_speedup = !best_oracle /. !best_kernel in
  (* --- the trace generator and the two LBR passes against the code
     they replaced (test/oracle): arenas of the same model, and profiles
     of the same arena and TAGE-SC-L verdicts.  Best of [front_reps]
     interleaved reps, model creation included; the arena and the
     profile must come out byte-identical every time. *)
  let module G = Whisper_oracle.Generator_ref in
  let front_reps = 3 in
  let best_gen = ref infinity and best_gen_oracle = ref infinity in
  let generator_identical = ref true in
  let verdicts = Bytes.create n_events in
  Whisper_bpu.Tage_scl.fill (Whisper_bpu.Sizes.for_budget ~kb:64) ~arena
    ~n:n_events ~covered:(Bytes.make n_events '\000') ~verdicts;
  let best_prof = ref infinity and best_prof_oracle = ref infinity in
  let profile_identical = ref true in
  for _ = 1 to front_reps do
    let s, a =
      time_once (fun () ->
          Arena.build ~events:n_events
            (App_model.create ~cfg ~config:app ~input:1 ()))
    in
    best_gen := Float.min !best_gen s;
    let s, (block, pc, instrs, next_addr, taken) =
      time_once (fun () ->
          let block = Array.make n_events 0 and pc = Array.make n_events 0 in
          let instrs = Array.make n_events 0 in
          let next_addr = Array.make n_events 0 in
          let taken = Bytes.make ((n_events + 7) / 8) '\000' in
          G.App_model.fill
            (G.App_model.create ~cfg ~config:app ~input:1 ())
            ~n:n_events ~block ~pc ~instrs ~next_addr ~taken;
          (block, pc, instrs, next_addr, taken))
    in
    best_gen_oracle := Float.min !best_gen_oracle s;
    let n = n_events in
    if
      Array.sub a.Arena.block 0 n <> block
      || Array.sub a.Arena.pc 0 n <> pc
      || Array.sub a.Arena.instrs 0 n <> instrs
      || Array.sub a.Arena.next_addr 0 n <> next_addr
      || Bytes.sub a.Arena.taken 0 ((n + 7) / 8) <> taken
    then generator_identical := false;
    let s, p =
      time_once (fun () ->
          Profile.collect_verdicts ~lengths:Workloads.lengths ~events:n ~arena
            ~verdicts ())
    in
    best_prof := Float.min !best_prof s;
    let s, q =
      time_once (fun () ->
          Whisper_oracle.Profile_ref.collect_arena ~lengths:Workloads.lengths
            ~events:n ~arena
            ~make_predictor:(fun () ->
              let i = ref 0 in
              fun ~pc:_ ~taken:_ ->
                let v = Bytes.get verdicts !i <> '\000' in
                incr i;
                v)
            ())
    in
    best_prof_oracle := Float.min !best_prof_oracle s;
    if Profile_io.to_bytes p <> Profile_io.to_bytes q then
      profile_identical := false
  done;
  let generator_ns = 1e9 *. !best_gen /. fe in
  let generator_oracle_ns = 1e9 *. !best_gen_oracle /. fe in
  let generator_speedup = generator_oracle_ns /. generator_ns in
  let profile_collect_speedup = !best_prof_oracle /. !best_prof in
  (* --- compiled whisper runtime vs the retained interpretive oracle,
     over the same plan, baseline and arena: the representation change
     (CSR plan, truth-table bank, sentinel-int buffer, used-length
     folds) must not change a single verdict or counter, and must be
     severalfold faster.  Runtimes are created outside the timed region —
     plan compilation is a once-per-run cost the replay amortizes.

     The probe uses a deterministic saturating plan (eight brhints
     hosted in every block, keyed by real branch PCs) and a cheap
     bimodal baseline, so the figure isolates the hint-execution /
     probe / hint-prediction machinery the compilation rewrites.  With
     the profile-derived plan and a TAGE baseline, the predictor cost —
     identical on both sides — dominates, and the plan's size varies
     with profile depth, so the ratio would read ~1x in smoke mode no
     matter how fast the runtime path got; a CI floor on that would be
     meaningless. *)
  let wh_config = Whisper_core.Config.default in
  let wh_plan =
    let open Whisper_core in
    let n_blocks = Array.length cfg.Cfg.blocks in
    let id_space =
      Whisper_formula.Tree.space_size ~leaves:wh_config.Config.hash_bits
    in
    let hints_per_block = 8 in
    let placements = ref [] in
    for b = n_blocks - 1 downto 0 do
      for j = hints_per_block - 1 downto 0 do
        let target = (b + (j * 37)) mod n_blocks in
        let bias =
          (* mostly formula hints, with the other biases represented *)
          match j with
          | 5 -> Brhint.Always_taken
          | 6 -> Brhint.Never_taken
          | 7 -> Brhint.Dynamic
          | _ -> Brhint.Formula
        in
        placements :=
          {
            Inject.branch_block = target;
            host_block = b;
            hint =
              Brhint.make
                ~len_idx:[| 1; 3; 5; 8 |].(j land 3)
                ~formula_id:(((b * 131) + (j * 17)) mod id_space)
                ~bias ~pc_offset:0;
            branch_pc = cfg.Cfg.blocks.(target).Cfg.branch_pc;
            cond_prob = 1.0;
          }
          :: !placements
      done
    done;
    let by_host = Hashtbl.create (2 * n_blocks) in
    List.iter
      (fun (p : Inject.placement) ->
        let existing =
          Option.value ~default:[]
            (Hashtbl.find_opt by_host p.Inject.host_block)
        in
        Hashtbl.replace by_host p.Inject.host_block (p :: existing))
      !placements;
    { Inject.placements = !placements; by_host; dropped = 0 }
  in
  let wh_baseline () = Whisper_bpu.Bimodal.make ~log_entries:12 in
  (* tight exec loops over the arena, no timing model: the machine's
     cache/BTB accounting is identical on both sides and would dilute
     the ratio the CI floor guards.  (The Machine-level equality of the
     compiled path is already asserted by the whisper tech_rows above
     and the differential tests.) *)
  let wh_reps = if smoke then 3 else 5 in
  let best_compiled = ref infinity and best_reference = ref infinity in
  let compiled_out = ref None and reference_out = ref None in
  for _ = 1 to wh_reps do
    let rt =
      Whisper_core.Runtime.create wh_config ~baseline:(wh_baseline ())
        ~plan:wh_plan
    in
    let s, correct =
      time_once (fun () ->
          let ok = ref 0 in
          for i = 0 to n_events - 1 do
            if Whisper_core.Runtime.exec_arena rt ~arena i then incr ok
          done;
          !ok)
    in
    best_compiled := Float.min !best_compiled s;
    compiled_out :=
      Some
        ( correct,
          Whisper_core.Runtime.hinted_predictions rt,
          Whisper_core.Runtime.hinted_mispredictions rt,
          Whisper_core.Runtime.baseline_predictions rt,
          Whisper_core.Runtime.buffer_stats rt );
    let rf =
      Whisper_core.Runtime.Reference.create wh_config ~baseline:(wh_baseline ())
        ~plan:wh_plan
    in
    let s, correct =
      time_once (fun () ->
          let ok = ref 0 in
          for i = 0 to n_events - 1 do
            if
              Whisper_core.Runtime.Reference.exec_at rf
                ~block:(Arena.block arena i) ~pc:(Arena.pc arena i)
                ~taken:(Arena.taken arena i)
            then incr ok
          done;
          !ok)
    in
    best_reference := Float.min !best_reference s;
    reference_out :=
      Some
        ( correct,
          Whisper_core.Runtime.Reference.hinted_predictions rf,
          Whisper_core.Runtime.Reference.hinted_mispredictions rf,
          Whisper_core.Runtime.Reference.baseline_predictions rf,
          Whisper_core.Runtime.Reference.buffer_stats rf )
  done;
  if !compiled_out <> !reference_out then
    failwith "compiled whisper runtime diverges from the interpretive oracle";
  let whisper_compiled_ns = 1e9 *. !best_compiled /. fe in
  let whisper_reference_ns = 1e9 *. !best_reference /. fe in
  let whisper_runtime_speedup = whisper_reference_ns /. whisper_compiled_ns in
  (* --- end-to-end multi-technique batch: every technique over the same
     (app, input), which is exactly the sharing the arena exists for.
     Cold = arena built in-run; warm = arena served from the persistent
     cache populated by a prior invocation. *)
  let sims = List.map (fun (_, t) -> Runner.sim app t) techniques in
  let batch ?cache_dir ~replay ~jobs () =
    let ctx =
      Runner.create_ctx ~events:n_events ~baseline_kb:64 ~jobs ~replay
        ?cache_dir ()
    in
    let wall, () = time_once (fun () -> Runner.run_batch ctx sims) in
    ( wall,
      List.map (fun (_, t) -> Runner.run ctx app t) techniques,
      Runner.stats ctx )
  in
  let closure_s, closure_results, _ = batch ~replay:`Closure ~jobs:1 () in
  let closure4_s, closure4_results, _ = batch ~replay:`Closure ~jobs:4 () in
  let cold_s, cold_results, cold_stats = batch ~replay:`Arena ~jobs:1 () in
  if closure_results <> cold_results then
    failwith "arena batch diverges from closure batch";
  if closure4_results <> cold_results then
    failwith "closure batch diverges across job counts";
  (* parallel determinism: the same arena shared across domains *)
  let par_s, par_results, _ = batch ~replay:`Arena ~jobs:4 () in
  if par_results <> cold_results then
    failwith "arena batch diverges across job counts";
  (* warm: prepopulate only the arena cache (not the result cache), so
     the warm run re-simulates everything but skips arena generation *)
  let cache_root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "whisper_replay_bench_%d" (Unix.getpid ()))
  in
  let pre = Runner.create_ctx ~events:n_events ~cache_dir:cache_root () in
  let store_s, () =
    time_once (fun () ->
        ignore (Runner.arena pre app ~input:0);
        ignore (Runner.arena pre app ~input:1))
  in
  let load_ctx = Runner.create_ctx ~events:n_events ~cache_dir:cache_root () in
  let load_s, _ = time_once (fun () -> Runner.arena load_ctx app ~input:1) in
  let warm_s, warm_results, warm_stats =
    batch ~cache_dir:cache_root ~replay:`Arena ~jobs:1 ()
  in
  if warm_results <> cold_results then
    failwith "warm arena batch diverges from cold";
  let cold_speedup = closure_s /. cold_s in
  let warm_speedup = closure_s /. warm_s in
  (* --- end-to-end event delivery over the batch's real pass structure:
     the closure path generates the stream once per consumer (2 profile
     passes over the train input + one sim pass per technique over the
     test input); the arena path builds each input's arena once and
     replays it by index for every consumer.  This isolates the cost the
     arena subsystem replaces — the full batch wall times above include
     the predictor/training work that is identical on both sides. *)
  let train_passes = 2 and test_passes = List.length techniques in
  let gen_pass input =
    let src = App_model.source (App_model.create ~cfg ~config:app ~input ()) in
    for _ = 1 to n_events do
      sink := !sink + (src ()).Branch.pc
    done
  in
  let closure_delivery_s, () =
    time_once (fun () ->
        for _ = 1 to train_passes do
          gen_pass 0
        done;
        for _ = 1 to test_passes do
          gen_pass 1
        done)
  in
  let replay_pass a =
    for i = 0 to n_events - 1 do
      sink := !sink + Arena.pc a i
    done
  in
  let arena_delivery_s, () =
    time_once (fun () ->
        let a0 =
          Arena.build ~events:n_events
            (App_model.create ~cfg ~config:app ~input:0 ())
        in
        let a1 =
          Arena.build ~events:n_events
            (App_model.create ~cfg ~config:app ~input:1 ())
        in
        for _ = 1 to train_passes do
          replay_pass a0
        done;
        for _ = 1 to test_passes do
          replay_pass a1
        done)
  in
  let delivery_speedup = closure_delivery_s /. arena_delivery_s in
  (* --- telemetry overhead on the replay hot path: the same arena replay
     through Machine.run_arena with recording enabled vs disabled.  The
     instrumentation contract is flush-once-per-run (no per-event work),
     so the difference should be noise-level; the perf gate holds it
     under max(5%, 5 ns/event). *)
  let telemetry_probe () =
    ignore
      (Whisper_pipeline.Machine.run_arena ~events:n_events ~arena
         ~predict:(fun (_ : int) -> true)
         ())
  in
  (* the probe is memory-bound, so a single window jitters (and the
     machine drifts thermally) by several percent — far more than the
     per-run flush.  Three defenses, each earned by a bad measurement:
     (1) the probe gets a >= 0.25 s window even in smoke mode, where the
     general min_s is 0.05 s — short windows alias scheduler noise into
     whole-percent swings; (2) the sides are interleaved and the gated
     statistic is the median of the per-round (on - off) differences,
     which cancels round-local drift that per-side medians still absorb
     (a committed full run once recorded -12.9% "overhead" from exactly
     that drift); (3) the displayed percentage is clamped at zero — a
     negative difference only means the drift happened to favour the
     enabled side, not that recording telemetry speeds the loop up. *)
  let measure side_enabled =
    Whisper_util.Telemetry.set_enabled side_enabled;
    time_ns ~min_s:(Float.max min_s 0.25) telemetry_probe /. fe
  in
  (* the true overhead is ~0 (flush-once amortizes to sub-0.01 ns/event),
     so the measurement is noise around zero with sigma of a few
     ns/event on a shared box; 15 rounds put the paired median's sigma
     comfortably under the gate's max(5%, 5 ns) budget *)
  let telemetry_rounds = 15 in
  let on_samples = Array.make telemetry_rounds 0.0 in
  let off_samples = Array.make telemetry_rounds 0.0 in
  let diff_samples = Array.make telemetry_rounds 0.0 in
  for i = 0 to telemetry_rounds - 1 do
    (* alternate which side runs first: a systematic first/second-window
       bias (cache warmth, GC debt left by the previous window) would
       otherwise load entirely onto one side of every paired difference *)
    if i land 1 = 0 then begin
      off_samples.(i) <- measure false;
      on_samples.(i) <- measure true
    end
    else begin
      on_samples.(i) <- measure true;
      off_samples.(i) <- measure false
    end;
    diff_samples.(i) <- on_samples.(i) -. off_samples.(i)
  done;
  Whisper_util.Telemetry.set_enabled true;
  let median a =
    let b = Array.copy a in
    Array.sort compare b;
    b.(Array.length b / 2)
  in
  let telemetry_on_ns = median on_samples in
  let telemetry_off_ns = median off_samples in
  let telemetry_overhead_ns = median diff_samples in
  let telemetry_overhead_pct =
    Float.max 0.0 (100.0 *. telemetry_overhead_ns /. telemetry_off_ns)
  in
  List.iter
    (fun (name, c_ns, a_ns) ->
      Printf.printf "  sim %-12s %8.1f -> %7.1f ns/event  (%.1fx)\n" name c_ns
        a_ns (c_ns /. a_ns))
    tech_rows;
  Printf.printf
    "  whisper runtime     %8.1f -> %7.1f ns/event  (%.1fx, oracle -> compiled)\n"
    whisper_reference_ns whisper_compiled_ns whisper_runtime_speedup;
  Printf.printf
    "  branchnet sgd       %8.2f -> %7.2f ms  (%.1fx, oracle -> kernel, %d \
     models, identical %b)\n"
    (1e3 *. !best_oracle) (1e3 *. !best_kernel) sgd_speedup
    (List.length sgd_sets) !sgd_identical;
  Printf.printf
    "  generator           %8.1f -> %7.1f ns/event  (%.1fx, oracle -> \
     library, identical %b)\n"
    generator_oracle_ns generator_ns generator_speedup !generator_identical;
  Printf.printf
    "  profile collect     %8.2f -> %7.2f ms  (%.1fx, oracle -> library, \
     identical %b)\n"
    (1e3 *. !best_prof_oracle) (1e3 *. !best_prof) profile_collect_speedup
    !profile_identical;
  Printf.printf "  event delivery     %8.1f -> %7.1f ns/event  (build %.1f ns/event)\n"
    closure_gen_ns arena_replay_ns arena_build_ns;
  Printf.printf
    "  batch (%d techniques) closure %.2fs, arena cold %.2fs (%.1fx), warm \
     %.2fs (%.1fx)\n%!"
    (List.length techniques) closure_s cold_s cold_speedup warm_s warm_speedup;
  Printf.printf "  batch -j4            closure %.2fs, arena %.2fs (%.1fx)\n%!"
    closure4_s par_s (closure4_s /. par_s);
  Printf.printf
    "  batch delivery (%d passes) closure %.3fs, arena %.3fs (%.1fx)\n%!"
    (train_passes + test_passes)
    closure_delivery_s arena_delivery_s delivery_speedup;
  Printf.printf
    "  telemetry overhead  %8.1f -> %7.1f ns/event  (paired %+.2f ns, \
     %+.1f%%)\n%!"
    telemetry_off_ns telemetry_on_ns telemetry_overhead_ns
    telemetry_overhead_pct;
  let out =
    Option.value ~default:"BENCH_replay.json"
      (Sys.getenv_opt "WHISPER_REPLAY_OUT")
  in
  let oc = open_out out in
  Printf.fprintf oc
    {|{
  "app": %S,
  "events": %d,
  "smoke": %b,
  "closure_gen_ns_per_event": %.2f,
  "arena_build_ns_per_event": %.2f,
  "arena_replay_ns_per_event": %.2f,
  "replay_speedup": %.2f,
  "whisper_arena_ns_per_event": %.2f,
  "whisper_reference_arena_ns_per_event": %.2f,
  "whisper_runtime_speedup": %.2f,
  "branchnet_sgd_models": %d,
  "branchnet_sgd_oracle_ms": %.2f,
  "branchnet_sgd_kernel_ms": %.2f,
  "branchnet_sgd_speedup": %.2f,
  "branchnet_sgd_identical": %b,
  "generator_ns_per_event": %.2f,
  "generator_oracle_ns_per_event": %.2f,
  "generator_speedup": %.2f,
  "generator_identical": %b,
  "profile_collect_ms": %.2f,
  "profile_collect_oracle_ms": %.2f,
  "profile_collect_speedup": %.2f,
  "profile_collect_identical": %b,
  "technique_sims": [
%s
  ],
%s  "batch_techniques": %d,
  "batch_closure_s": %.3f,
  "batch_arena_cold_s": %.3f,
  "batch_arena_warm_s": %.3f,
  "batch_cold_speedup": %.2f,
  "batch_warm_speedup": %.2f,
  "batch_closure_j4_s": %.3f,
  "batch_arena_j4_s": %.3f,
  "batch_j4_speedup": %.2f,
  "batch_delivery_passes": %d,
  "batch_delivery_closure_s": %.3f,
  "batch_delivery_arena_s": %.3f,
  "batch_delivery_speedup": %.2f,
  "batch_cold_arena_builds": %d,
  "batch_warm_arena_cache_hits": %d,
  "arena_cache_store_ms": %.2f,
  "arena_cache_load_ms": %.2f,
  "telemetry_on_ns_per_event": %.2f,
  "telemetry_off_ns_per_event": %.2f,
  "telemetry_overhead_ns_per_event": %.2f,
  "telemetry_overhead_pct": %.2f,
  "parallel_jobs": 4,
  "parallel_identical": true,
  "pipeline_identical": true
}
|}
    app_name n_events smoke closure_gen_ns arena_build_ns arena_replay_ns
    (closure_gen_ns /. arena_replay_ns)
    whisper_compiled_ns whisper_reference_ns whisper_runtime_speedup
    (List.length sgd_sets) (1e3 *. !best_oracle) (1e3 *. !best_kernel)
    sgd_speedup !sgd_identical generator_ns generator_oracle_ns
    generator_speedup !generator_identical (1e3 *. !best_prof)
    (1e3 *. !best_prof_oracle) profile_collect_speedup !profile_identical
    (String.concat ",\n"
       (List.map
          (fun (name, c_ns, a_ns) ->
            Printf.sprintf
              "    { \"technique\": %S, \"closure_ns_per_event\": %.2f, \
               \"arena_ns_per_event\": %.2f, \"speedup\": %.2f }"
              name c_ns a_ns (c_ns /. a_ns))
          tech_rows))
    (* flat duplicates of the per-technique rows, addressable by
       check_regression's top-level numeric field lookup (ratio bands and
       --floor gates can't reach into the technique_sims array) *)
    (String.concat ""
       (List.map
          (fun (name, c_ns, a_ns) ->
            let key = String.map (fun c -> if c = '-' then '_' else c) name in
            Printf.sprintf
              "  \"sim_%s_closure_ns_per_event\": %.2f,\n\
              \  \"sim_%s_arena_ns_per_event\": %.2f,\n\
              \  \"sim_%s_speedup\": %.2f,\n"
              key c_ns key a_ns key (c_ns /. a_ns))
          tech_rows))
    (List.length techniques)
    closure_s cold_s warm_s cold_speedup warm_speedup closure4_s par_s
    (closure4_s /. par_s)
    (train_passes + test_passes)
    closure_delivery_s arena_delivery_s delivery_speedup
    cold_stats.Runner.arena_builds warm_stats.Runner.arena_cache_hits
    (1e3 *. store_s) (1e3 *. load_s) telemetry_on_ns telemetry_off_ns
    telemetry_overhead_ns telemetry_overhead_pct;
  close_out oc;
  Printf.printf "  wrote %s\n%!" out;
  ignore !sink

(* ------------------------------------------------------------------ *)
(* Part 1d: continuous-profiling service benchmark (BENCH_serve.json) *)
(* ------------------------------------------------------------------ *)

(* Measures the serve-mode hot path: chunk collection by the arena
   collector against the closure oracle (asserting byte-identical
   chunks), chunk-ingest throughput into the order-independent
   accumulator, the window re-scoring latency that runs every
   generation, and — before emitting any number — replays the scripted
   drifting scenario interrupted-and-resumed against an uninterrupted
   reference and asserts the generation ledgers are byte-identical.

   Extra environment:
     WHISPER_BENCH_SMOKE  short mode for CI (fewer/smaller generations)
     WHISPER_SERVE_OUT    output path (default BENCH_serve.json) *)

let rec bench_rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun e -> bench_rm_rf (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let serve_bench () =
  let module Serve = Whisper_sim.Serve in
  let smoke = Sys.getenv_opt "WHISPER_BENCH_SMOKE" <> None in
  let generations = if smoke then 8 else 16 in
  let chunk_events = if smoke then 60_000 else 120_000 in
  let min_s = if smoke then 0.05 else 0.3 in
  let app_name = "finagle-http" in
  Printf.printf
    "\n== serve benchmark (%s, %d generations x %d-event chunks%s) ==\n%!"
    app_name generations chunk_events
    (if smoke then ", smoke mode" else "");
  let state_root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "whisper_bench_serve_%d" (Unix.getpid ()))
  in
  bench_rm_rf state_root;
  let cfg dir =
    {
      (Serve.default ~state_dir:(Filename.concat state_root dir)) with
      Serve.generations;
      chunk_events;
      drift_flip = Some (generations / 2);
      apps = [ app_name ];
    }
  in
  (* --- the scripted scenario, clean, as the reference ledger *)
  let t0 = Unix.gettimeofday () in
  let clean = Serve.run (cfg "clean") in
  let clean_s = Unix.gettimeofday () -. t0 in
  assert (not clean.Serve.interrupted);
  (* --- the same scenario interrupted mid-run and resumed: the ledger
     must come back byte-identical, or no perf number matters *)
  ignore
    (Serve.run { (cfg "kill") with Serve.max_steps = Some (generations / 2) });
  let resumed = Serve.run { (cfg "kill") with Serve.resume = true } in
  let generations_identical =
    clean.Serve.ledger = resumed.Serve.ledger
    && clean.Serve.summary = resumed.Serve.summary
  in
  if not generations_identical then
    failwith "serve bench: resumed ledger differs from the clean reference";
  Printf.printf
    "  scenario: %d steps in %.1f s, %d rollouts, %d drift detections; \
     kill/resume ledger identical\n\
     %!"
    clean.Serve.total clean_s clean.Serve.rollouts clean.Serve.drift_detected;
  (* --- chunk collection, both ways over the same stream: the closure
     oracle (test/oracle's pre-rewrite collector: stream regenerated per
     pass, closure-record TAGE-SC-L run per pass) and the collector
     serve runs (arena packed once, compiled verdict fill once).  The two run back to back in each of [reps]
     pairs, and the speedup is the median of the per-pair ratios, so a
     host-speed change between pairs cancels; the ns/event figures are
     the best of [reps].  The encoded chunks must be byte-identical
     before any time counts. *)
  let wcfg = Option.get (Workloads.by_name app_name) in
  let cfg_static = Workloads.build_cfg wcfg in
  let model input = App_model.create ~cfg:cfg_static ~config:wcfg ~input () in
  let closure_chunk input =
    Whisper_oracle.Profile_ref.collect ~max_samples:512
      ~lengths:Workloads.lengths
      ~events:chunk_events
      ~make_source:(fun () -> App_model.source (model input))
      ~make_predictor:(Whisper_sim.Runner.lbr_predictor 64)
      ()
  in
  let chunk input =
    Whisper_sim.Runner.profile_arena ~max_samples:512 ~kb:64
      (Arena.build ~events:chunk_events (model input))
  in
  let encode p = Profile_chunk.encode ~app:app_name ~seq:0 p in
  let reps = if smoke then 5 else 7 in
  let pairs =
    List.init reps (fun _ ->
        let c_s, c = time_once (fun () -> closure_chunk 0) in
        let a_s, a = time_once (fun () -> chunk 0) in
        (c_s, a_s, Bytes.equal (encode c) (encode a)))
  in
  let collect_identical = List.for_all (fun (_, _, same) -> same) pairs in
  if not collect_identical then
    failwith
      "serve bench: arena-collected chunk differs from the closure oracle";
  let best f =
    List.fold_left (fun acc p -> Float.min acc (f p)) infinity pairs
  in
  let per_event s = 1e9 *. s /. float_of_int (max 1 chunk_events) in
  let collect_closure_ns = per_event (best (fun (c, _, _) -> c)) in
  let collect_ns = per_event (best (fun (_, a, _) -> a)) in
  let collect_speedup =
    let r = Array.of_list (List.map (fun (c, a, _) -> c /. a) pairs) in
    Array.sort compare r;
    r.(reps / 2)
  in
  Printf.printf
    "  collect %.0f ns/event (closure oracle %.0f, %.2fx), chunks identical\n%!"
    collect_ns collect_closure_ns collect_speedup;
  (* --- ingest throughput: the per-delivery accumulator merge *)
  let window = List.init 4 chunk in
  let samples_per_round =
    let a =
      Whisper_trace.Profile_chunk.create_accum ~max_samples:512
        ~lengths:Workloads.lengths ()
    in
    List.iteri
      (fun i p ->
        ignore
          (Whisper_trace.Profile_chunk.ingest_profile a ~id:(string_of_int i) p))
      window;
    Whisper_trace.Profile_chunk.samples a
  in
  let ingest_round_ns =
    time_ns ~min_s (fun () ->
        let a =
          Whisper_trace.Profile_chunk.create_accum ~max_samples:512
            ~lengths:Workloads.lengths ()
        in
        List.iteri
          (fun i p ->
            ignore
              (Whisper_trace.Profile_chunk.ingest_profile a
                 ~id:(string_of_int i) p))
          window)
  in
  let ingest_ns_per_sample =
    ingest_round_ns /. float_of_int (max 1 samples_per_round)
  in
  (* --- re-scoring latency: the drift detector's per-generation cost *)
  let wprof =
    Whisper_trace.Profile_chunk.merge_profiles ~max_samples:512
      ~lengths:Workloads.lengths window
  in
  let config = Whisper_core.Config.default in
  let rnd = Whisper_core.Randomized.create config in
  let plan = (Whisper_core.Analyze.run ~config wprof).Whisper_core.Analyze.decisions in
  let rescore_ns =
    time_ns ~min_s (fun () ->
        ignore (Whisper_core.Rescore.score ~config ~rnd ~profile:wprof plan))
  in
  let rescore_ms = rescore_ns /. 1e6 in
  let final_hints =
    (* the hints= field of the last ledger line *)
    match List.rev clean.Serve.ledger with
    | last :: _ ->
        List.fold_left
          (fun acc tok ->
            match String.index_opt tok '=' with
            | Some i when String.sub tok 0 i = "hints" ->
                int_of_string
                  (String.sub tok (i + 1) (String.length tok - i - 1))
            | _ -> acc)
          0
          (String.split_on_char ' ' last)
    | [] -> 0
  in
  Printf.printf
    "  ingest %.1f ns/sample (%d samples/window), rescore %.2f ms \
     (%d hints, %d window branches)\n\
     %!"
    ingest_ns_per_sample samples_per_round rescore_ms (List.length plan)
    (Array.length (Profile.candidates wprof));
  let out =
    Option.value ~default:"BENCH_serve.json" (Sys.getenv_opt "WHISPER_SERVE_OUT")
  in
  let oc = open_out out in
  Printf.fprintf oc
    {|{
  "app": %S,
  "events": %d,
  "smoke": %b,
  "serve_generations": %d,
  "serve_window": 4,
  "serve_chunks_ingested": %d,
  "serve_rollouts": %d,
  "serve_drift_detected": %d,
  "serve_final_hints": %d,
  "serve_ingest_ns_per_sample": %.2f,
  "serve_samples_per_window": %d,
  "serve_rescore_ms": %.3f,
  "serve_scenario_s": %.2f,
  "serve_collect_closure_ns_per_event": %.1f,
  "serve_collect_ns_per_event": %.1f,
  "serve_collect_speedup": %.2f,
  "host_cores": %d,
  "serve_collect_identical": %b,
  "serve_generations_identical": %b
}
|}
    app_name chunk_events smoke generations clean.Serve.chunks_ingested
    clean.Serve.rollouts clean.Serve.drift_detected final_hints
    ingest_ns_per_sample samples_per_round rescore_ms clean_s
    collect_closure_ns collect_ns collect_speedup
    (Domain.recommended_domain_count ())
    collect_identical generations_identical;
  close_out oc;
  Printf.printf "  wrote %s\n%!" out;
  bench_rm_rf state_root

(* ------------------------------------------------------------------ *)
(* Part 3: ablation benches                                           *)
(* ------------------------------------------------------------------ *)

(* History-hash operation ablation (paper §III-A: XOR chosen over AND/OR).
   Measures how well the best formula can separate taken from not-taken
   hashed histories when the fold uses each operation, over a profiling
   trace of one application. *)
let hash_ablation () =
  Printf.printf "== ablation: history-hash operation (postgres) ==\n%!";
  let app = Option.get (Workloads.by_name "postgres") in
  let cfg = Workloads.build_cfg app in
  let lengths = [| 16; 55; 204; 540 |] in
  let n_events = min events 300_000 in
  (* collect raw windows for the hottest branches *)
  let src = App_model.source (App_model.create ~cfg ~config:app ~input:0 ()) in
  let hist = Whisper_util.History.create ~depth:2048 in
  let per_branch = Hashtbl.create 512 in
  for _ = 1 to n_events do
    let e = src () in
    (match Cfg.block_of_pc cfg e.Branch.pc with
    | Some b
      when (match (Cfg.behavior cfg b.Cfg.id).Behavior.kind with
           | Behavior.Hashed_formula _ | Behavior.Short_formula _ -> true
           | _ -> false)
           && Hashtbl.length per_branch < 64
           || Hashtbl.mem per_branch e.Branch.pc ->
        let window =
          Array.map
            (fun len ->
              Array.init len (fun j -> Whisper_util.History.get hist j))
            lengths
        in
        let prev =
          Option.value ~default:[] (Hashtbl.find_opt per_branch e.Branch.pc)
        in
        if List.length prev < 256 then
          Hashtbl.replace per_branch e.Branch.pc
            ((window, e.Branch.taken) :: prev)
    | _ -> ());
    Whisper_util.History.push hist e.Branch.taken
  done;
  let fold op bits =
    let acc = ref (match op with `And -> 0xFF | _ -> 0) in
    Array.iteri
      (fun j b ->
        let pos = j mod 8 in
        match op with
        | `Xor -> acc := !acc lxor (b lsl pos)
        | `Or -> acc := !acc lor (b lsl pos)
        | `And ->
            (* AND-fold: clear the position's bit when any chunk has 0 *)
            if b = 0 then acc := !acc land lnot (1 lsl pos))
      bits;
    !acc land 0xFF
  in
  let rnd = Whisper_core.Randomized.create Whisper_core.Config.default in
  let cands = Whisper_core.Randomized.candidates rnd in
  List.iter
    (fun op ->
      let total = ref 0 and mis = ref 0 in
      Hashtbl.iter
        (fun _ samples ->
          Array.iteri
            (fun li _ ->
              let taken = Array.make 256 0 and not_taken = Array.make 256 0 in
              List.iter
                (fun (window, tk) ->
                  let k = fold op window.(li) in
                  if tk then taken.(k) <- taken.(k) + 1
                  else not_taken.(k) <- not_taken.(k) + 1)
                samples;
              let tables =
                Whisper_core.Algorithm1.tables_of_counts ~taken ~not_taken
              in
              if Whisper_core.Algorithm1.distinct_keys tables > 0 then begin
                let _, m =
                  Whisper_core.Algorithm1.find tables ~candidates:cands
                    ~truth_of:(Whisper_core.Randomized.truth_of rnd)
                in
                let t, nt = Whisper_core.Algorithm1.tables_total tables in
                total := !total + t + nt;
                mis := !mis + m
              end)
            lengths)
        per_branch;
      Printf.printf "  fold=%-4s best-formula accuracy %.1f%%\n%!"
        (match op with `Xor -> "xor" | `And -> "and" | `Or -> "or")
        (100.0 *. (1.0 -. (float_of_int !mis /. float_of_int (max 1 !total)))))
    [ `Xor; `And; `Or ]

let hintbuf_ablation ctx =
  Printf.printf "== ablation: hint-buffer size (cassandra) ==\n%!";
  let app = Option.get (Workloads.by_name "cassandra") in
  let base = Whisper_sim.Runner.run ctx app Whisper_sim.Runner.Baseline in
  List.iter
    (fun size ->
      let config = { Whisper_core.Config.default with hint_buffer_size = size } in
      let w = Whisper_sim.Runner.run ctx app (Whisper_sim.Runner.Whisper config) in
      Printf.printf "  %3d entries: reduction %.1f%%\n%!" size
        (Whisper_util.Stats.reduction_pct
           ~baseline:(float_of_int base.Whisper_pipeline.Machine.mispredicts)
           ~improved:(float_of_int w.Whisper_pipeline.Machine.mispredicts)))
    [ 4; 16; 32; 128 ]

(* ------------------------------------------------------------------ *)

(* WHISPER_METRICS_OUT / WHISPER_TRACE_OUT: export the run's telemetry
   like the CLI does, so CI can attach bench metrics as artifacts. *)
let emit_telemetry () =
  let module T = Whisper_util.Telemetry in
  let write render path =
    T.write_file ~path (render (T.snapshot ()));
    Printf.printf "  wrote %s\n%!" path
  in
  Option.iter (write T.to_json_string) (Sys.getenv_opt "WHISPER_METRICS_OUT");
  Option.iter (write T.to_chrome) (Sys.getenv_opt "WHISPER_TRACE_OUT")

let () =
  if Sys.getenv_opt "WHISPER_SEARCH_BENCH_ONLY" <> None then begin
    search_bench ();
    emit_telemetry ();
    exit 0
  end;
  if Sys.getenv_opt "WHISPER_REPLAY_BENCH_ONLY" <> None then begin
    replay_bench ();
    emit_telemetry ();
    exit 0
  end;
  if Sys.getenv_opt "WHISPER_SERVE_BENCH_ONLY" <> None then begin
    serve_bench ();
    emit_telemetry ();
    exit 0
  end;
  if Sys.getenv_opt "WHISPER_SKIP_MICRO" = None then run_micro ();
  search_bench ();
  replay_bench ();
  serve_bench ();
  Printf.printf
    "\n== paper tables & figures (%d events per run, %d jobs%s) ==\n\n%!"
    events jobs
    (match cache_dir with
    | Some dir -> Printf.sprintf ", cache %s" dir
    | None -> ", no cache");
  let ctx =
    Whisper_sim.Runner.create_ctx ~events ~jobs ?cache_dir ~faults ~fault_seed
      ()
  in
  let only =
    match Sys.getenv_opt "WHISPER_ONLY" with
    | Some s -> String.split_on_char ',' s
    | None -> Whisper_sim.Experiments.all_ids
  in
  List.iter
    (fun id ->
      match Whisper_sim.Experiments.by_id id with
      | None -> Printf.eprintf "unknown experiment id %s\n" id
      | Some f ->
          let before = Whisper_sim.Runner.stats ctx in
          let fbefore = Whisper_sim.Runner.fault_summary ctx in
          let t0 = Unix.gettimeofday () in
          let report = f ctx in
          let wall_s = Unix.gettimeofday () -. t0 in
          let after = Whisper_sim.Runner.stats ctx in
          let report =
            Whisper_sim.Report.with_timing
              {
                Whisper_sim.Report.wall_s;
                sims = after.Whisper_sim.Runner.sims - before.Whisper_sim.Runner.sims;
                sim_seconds =
                  after.Whisper_sim.Runner.sim_seconds
                  -. before.Whisper_sim.Runner.sim_seconds;
                cache_hits =
                  after.Whisper_sim.Runner.cache_hits
                  - before.Whisper_sim.Runner.cache_hits;
                cache_misses =
                  after.Whisper_sim.Runner.cache_misses
                  - before.Whisper_sim.Runner.cache_misses;
              }
              report
          in
          let report =
            if faults <= 0.0 then report
            else
              let fa = Whisper_sim.Runner.fault_summary ctx in
              let open Whisper_sim.Report in
              with_faults
                {
                  injected = fa.injected - fbefore.injected;
                  observed = fa.observed - fbefore.observed;
                  retries = fa.retries - fbefore.retries;
                  quarantined = fa.quarantined - fbefore.quarantined;
                  cache_write_failures =
                    fa.cache_write_failures - fbefore.cache_write_failures;
                  cache_corrupt_dropped =
                    fa.cache_corrupt_dropped - fbefore.cache_corrupt_dropped;
                }
                report
          in
          Whisper_sim.Report.print report;
          Printf.printf "\n%!")
    only;
  hash_ablation ();
  hintbuf_ablation ctx;
  emit_telemetry ()

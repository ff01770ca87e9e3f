(* Tests for the multicore experiment runner: the Whisper_util.Pool
   domain pool, the persistent result cache (round trip, corruption
   recovery, warm-rerun hit accounting), the parallel-vs-sequential
   determinism of experiment tables, and the memoized ROMBF and
   BranchNet specs (each trained once per profile). *)

open Whisper_sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let app name = Option.get (Whisper_trace.Workloads.by_name name)

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let ok = function Ok v -> v | Error e -> raise e

let test_pool_map_ordered () =
  let xs = Array.init 100 Fun.id in
  List.iter
    (fun jobs ->
      let ys = Whisper_util.Pool.map ~jobs (fun i -> i * i) xs in
      check_int "length" 100 (Array.length ys);
      Array.iteri
        (fun i r -> check_int (Printf.sprintf "jobs=%d slot %d" jobs i) (i * i) (ok r))
        ys)
    [ 1; 4 ]

let test_pool_map_matches_sequential () =
  let xs = Array.init 64 (fun i -> i * 37) in
  let seq = Whisper_util.Pool.map ~jobs:1 (fun x -> x + 1) xs in
  let par = Whisper_util.Pool.map ~jobs:4 (fun x -> x + 1) xs in
  check_bool "identical outcome arrays" true (seq = par)

exception Boom of int

let test_pool_exception_isolated () =
  let xs = Array.init 32 Fun.id in
  let ys =
    Whisper_util.Pool.map ~jobs:4
      (fun i -> if i = 17 then raise (Boom i) else i)
      xs
  in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> check_int "survivor" i v
      | Error (Boom n) ->
          check_int "failing slot" 17 i;
          check_int "payload" 17 n
      | Error e -> raise e)
    ys;
  check_bool "exactly one failure" true
    (Array.to_list ys
    |> List.filter (function Error _ -> true | Ok _ -> false)
    |> List.length = 1);
  (* the pool machinery is not wedged: a fresh map still completes *)
  let again = Whisper_util.Pool.map ~jobs:4 (fun i -> -i) xs in
  Array.iteri (fun i r -> check_int "after failure" (-i) (ok r)) again

let test_pool_submit_await () =
  let pool = Whisper_util.Pool.create ~jobs:2 () in
  check_int "jobs" 2 (Whisper_util.Pool.jobs pool);
  let futures =
    List.init 20 (fun i -> Whisper_util.Pool.submit pool (fun () -> 3 * i))
  in
  List.iteri
    (fun i fut -> check_int "future" (3 * i) (ok (Whisper_util.Pool.await fut)))
    futures;
  Whisper_util.Pool.shutdown pool;
  (* idempotent, and submit after shutdown is refused *)
  Whisper_util.Pool.shutdown pool;
  check_bool "submit refused" true
    (match Whisper_util.Pool.submit pool (fun () -> 0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Pool: persistent-pool scheduling                                   *)
(* ------------------------------------------------------------------ *)

let test_pool_map_pool_reusable () =
  (* map_pool runs on an existing pool — no domains spawned per call —
     and the pool survives any number of maps *)
  let pool = Whisper_util.Pool.create ~jobs:2 () in
  let xs = Array.init 50 Fun.id in
  let ys = Whisper_util.Pool.map_pool pool (fun i -> i * 7) xs in
  Array.iteri (fun i r -> check_int "slot" (i * 7) (ok r)) ys;
  let zs = Whisper_util.Pool.map_pool pool (fun i -> i - 1) xs in
  Array.iteri (fun i r -> check_int "second map, same pool" (i - 1) (ok r)) zs;
  Whisper_util.Pool.shutdown pool

let test_pool_fanout_width () =
  let pool = Whisper_util.Pool.create ~jobs:3 () in
  let hits = Atomic.make 0 in
  Whisper_util.Pool.fanout pool ~width:4 (fun () -> Atomic.incr hits);
  check_int "every claimer ran the body once" 4 (Atomic.get hits);
  Atomic.set hits 0;
  Whisper_util.Pool.fanout pool ~width:99 (fun () -> Atomic.incr hits);
  check_int "width clamped to workers + caller" 4 (Atomic.get hits);
  check_bool "claimer exception propagates" true
    (match Whisper_util.Pool.fanout pool ~width:2 (fun () -> failwith "boom") with
    | exception Failure _ -> true
    | () -> false);
  Whisper_util.Pool.shutdown pool

let test_pool_nested_fanout_inline () =
  (* fan-out from inside a pool worker must degrade to an inline call
     (one body execution, no submissions) or the pool would deadlock
     waiting on itself *)
  let pool = Whisper_util.Pool.create ~jobs:2 () in
  let inner = Atomic.make 0 in
  let ys =
    Whisper_util.Pool.map_pool pool
      (fun i ->
        Whisper_util.Pool.fanout pool ~width:4 (fun () -> Atomic.incr inner);
        i)
      (Array.init 4 Fun.id)
  in
  Array.iteri (fun i r -> check_int "outer task" i (ok r)) ys;
  check_int "nested fanout ran inline exactly once per task" 4
    (Atomic.get inner);
  Whisper_util.Pool.shutdown pool

let test_pool_shared_grows () =
  (* the process-wide pool only ever widens; narrower requests reuse
     the existing pool rather than churning domains *)
  let p2 = Whisper_util.Pool.shared ~jobs:2 in
  check_bool "at least two workers" true (Whisper_util.Pool.jobs p2 >= 2);
  let p1 = Whisper_util.Pool.shared ~jobs:1 in
  check_bool "narrower request reuses the wide pool" true (p1 == p2);
  let p3 = Whisper_util.Pool.shared ~jobs:(Whisper_util.Pool.jobs p2 + 1) in
  check_bool "wider request grows the pool" true
    (Whisper_util.Pool.jobs p3 > Whisper_util.Pool.jobs p2);
  let fut = Whisper_util.Pool.submit p3 (fun () -> 41 + 1) in
  check_int "shared pool runs tasks" 42 (ok (Whisper_util.Pool.await fut))

(* ------------------------------------------------------------------ *)
(* Pool: timeouts and retries                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_await_timeout () =
  let pool = Whisper_util.Pool.create ~jobs:1 () in
  let slow =
    Whisper_util.Pool.submit pool (fun () ->
        Unix.sleepf 0.25;
        7)
  in
  check_bool "still running" true
    (Whisper_util.Pool.await_timeout slow ~seconds:0.02 = None);
  (match Whisper_util.Pool.await_timeout slow ~seconds:5.0 with
  | Some (Ok 7) -> ()
  | _ -> Alcotest.fail "slow task should finish within the long wait");
  Whisper_util.Pool.shutdown pool

let test_pool_retry_transient () =
  (* every element fails its first attempt; the retry succeeds *)
  let policy =
    { Whisper_util.Pool.default_policy with attempts = 3; backoff_s = 0.001 }
  in
  let ys =
    Whisper_util.Pool.map_retry ~jobs:2 ~policy
      (fun ~attempt x -> if attempt = 1 then failwith "flaky" else x * 10)
      (Array.init 8 Fun.id)
  in
  Array.iteri (fun i r -> check_int "recovered on retry" (i * 10) (ok r)) ys

let test_pool_retry_exhausted () =
  let tries = Atomic.make 0 in
  let policy =
    { Whisper_util.Pool.default_policy with attempts = 3; backoff_s = 0.001 }
  in
  let ys =
    Whisper_util.Pool.map_retry ~jobs:2 ~policy
      (fun ~attempt:_ _ ->
        Atomic.incr tries;
        failwith "always broken")
      [| 0 |]
  in
  check_int "exactly [attempts] tries" 3 (Atomic.get tries);
  check_bool "final outcome is the task's error" true
    (match ys.(0) with Error (Failure _) -> true | _ -> false)

let test_pool_hung_task_recovers () =
  (* a deliberately hung first attempt trips the per-task timeout; the
     retry answers promptly and wins *)
  let policy =
    { Whisper_util.Pool.attempts = 2; timeout_s = Some 0.05; backoff_s = 0.001 }
  in
  let ys =
    Whisper_util.Pool.map_retry ~jobs:2 ~policy
      (fun ~attempt x ->
        if attempt = 1 then Unix.sleepf 0.4;
        x + 1)
      [| 41 |]
  in
  check_int "recovered after hang" 42 (ok ys.(0))

let test_pool_hung_task_times_out () =
  (* a task that hangs on every attempt surfaces as a typed Timeout *)
  let policy =
    { Whisper_util.Pool.attempts = 2; timeout_s = Some 0.03; backoff_s = 0.001 }
  in
  let ys =
    Whisper_util.Pool.map_retry ~jobs:1 ~policy
      (fun ~attempt:_ () -> Unix.sleepf 0.2)
      [| () |]
  in
  match ys.(0) with
  | Error
      (Whisper_util.Whisper_error.Error
        {
          kind = Whisper_util.Whisper_error.Timeout _;
          stage = Whisper_util.Whisper_error.Task;
          _;
        }) ->
      ()
  | _ -> Alcotest.fail "expected a typed Task/Timeout error"

(* ------------------------------------------------------------------ *)
(* Result cache                                                       *)
(* ------------------------------------------------------------------ *)

let sample_result () =
  {
    Whisper_pipeline.Machine.cycles = 123456.75;
    instrs = 98765;
    branches = 4321;
    mispredicts = 171;
    misp_stall = 3400.5;
    fe_stall = 120.25;
    btb_stall = 33.0;
    l1i_misses = 99;
    exposed_misses = 41;
    seg_mispredicts = [| 17; 18; 19; 20; 21; 22; 23; 24; 25; 26 |];
    seg_instrs = [| 9876; 9877; 9878; 9879; 9880; 9881; 9882; 9883; 9884; 9885 |];
  }

let test_cache_roundtrip () =
  let c = Result_cache.create ~dir:(Test_dirs.fresh "rt") () in
  let key = "cassandra/whisper/0/1/64/60000" in
  check_bool "empty" true (Result_cache.find c ~key = None);
  let r = sample_result () in
  Result_cache.store c ~key r;
  check_bool "round trip" true (Result_cache.find c ~key = Some r);
  (* a different key maps to a different entry *)
  check_bool "other key misses" true (Result_cache.find c ~key:"other" = None)

let test_cache_corrupt_recovery () =
  let c = Result_cache.create ~dir:(Test_dirs.fresh "corrupt") () in
  let key = "mysql/tage-scl/0/1/64/60000" in
  Result_cache.store c ~key (sample_result ());
  let file = Result_cache.path c ~key in
  (* truncate mid-entry: decode must fail, find must fall back to a miss
     and remove the file *)
  let oc = open_out_bin file in
  output_string oc "WRSCgarbage";
  close_out oc;
  check_bool "corrupt entry is a miss" true (Result_cache.find c ~key = None);
  check_bool "corrupt entry removed" true (not (Sys.file_exists file));
  (* storing again repairs the entry *)
  Result_cache.store c ~key (sample_result ());
  check_bool "repaired" true (Result_cache.find c ~key = Some (sample_result ()))

let test_cache_key_mismatch () =
  let r = sample_result () in
  let b = Result_cache.encode ~key:"key-a" r in
  check_bool "decode under the written key" true
    (Result_cache.decode ~key:"key-a" b = Ok r);
  check_bool "decode under another key fails typed" true
    (match Result_cache.decode ~key:"key-b" b with
    | Error e -> e.Whisper_util.Whisper_error.kind = Whisper_util.Whisper_error.Key_mismatch
    | Ok _ -> false)

let test_cache_counters () =
  let dir = Test_dirs.fresh "counters" in
  let c = Result_cache.create ~dir () in
  let key = "counter-key" in
  Result_cache.store c ~key (sample_result ());
  let file = Result_cache.path c ~key in
  let oc = open_out_bin file in
  output_string oc "WRSCgarbage";
  close_out oc;
  check_bool "corrupt entry is a miss" true (Result_cache.find c ~key = None);
  check_int "corrupt drop counted" 1
    (Result_cache.counters c).Result_cache.corrupt_dropped;
  check_int "no write failures yet" 0
    (Result_cache.counters c).Result_cache.write_failures;
  (* replace the cache directory with a plain file: every subsequent
     write must fail, be swallowed, and be counted *)
  let wf_dir = Test_dirs.fresh "wf" in
  let c2 = Result_cache.create ~dir:wf_dir () in
  Unix.rmdir wf_dir;
  let oc = open_out wf_dir in
  close_out oc;
  Result_cache.store c2 ~key:"k" (sample_result ());
  Result_cache.store c2 ~key:"k2" (sample_result ());
  check_int "write failures counted" 2
    (Result_cache.counters c2).Result_cache.write_failures;
  Sys.remove wf_dir

let test_cache_corrupt_hook () =
  (* the fault-injection read hook makes every entry decode-fail *)
  let c =
    Result_cache.create
      ~corrupt:(fun ~key:_ b -> Bytes.sub b 0 (Bytes.length b / 2))
      ~dir:(Test_dirs.fresh "hook") ()
  in
  Result_cache.store c ~key:"k" (sample_result ());
  check_bool "hook-corrupted read is a miss" true
    (Result_cache.find c ~key:"k" = None);
  check_int "counted" 1 (Result_cache.counters c).Result_cache.corrupt_dropped

(* ------------------------------------------------------------------ *)
(* Runner: parallel determinism and warm-cache reruns                 *)
(* ------------------------------------------------------------------ *)

let det_events = 20_000

let test_parallel_determinism () =
  let seq = Runner.create_ctx ~events:det_events ~jobs:1 () in
  let par = Runner.create_ctx ~events:det_events ~jobs:4 () in
  let a = Experiments.fig1 seq in
  let b = Experiments.fig1 par in
  check_string "fig1 rows byte-identical" (Report.to_csv a) (Report.to_csv b);
  check_int "4 domains" 4 (Runner.jobs par);
  check_bool "both simulated" true
    ((Runner.stats seq).Runner.sims > 0
    && (Runner.stats seq).Runner.sims = (Runner.stats par).Runner.sims)

let test_run_batch_dedups () =
  let ctx = Runner.create_ctx ~events:det_events ~jobs:2 () in
  let a = app "finagle-http" in
  Runner.run_batch ctx
    [
      Runner.sim a Runner.Baseline;
      Runner.sim a Runner.Baseline;
      Runner.collect a;
      Runner.collect a;
    ];
  check_int "duplicate work items simulate once" 1 (Runner.stats ctx).Runner.sims

let test_run_batch_whisper_parallel_identity () =
  (* the compiled whisper runtime through run_batch must be
     byte-identical across job counts — the runtime is per-run state, so
     domain scheduling must not be able to reorder anything it observes *)
  let a = app "finagle-http" in
  let techniques =
    [
      Runner.Whisper Whisper_core.Config.default;
      Runner.Whisper
        { Whisper_core.Config.default with hint_buffer_size = 64 };
    ]
  in
  let results ~jobs =
    let ctx = Runner.create_ctx ~events:det_events ~jobs () in
    Runner.run_batch ctx (List.map (fun t -> Runner.sim a t) techniques);
    List.map (fun t -> Runner.run ctx a t) techniques
  in
  check_bool "whisper batch results byte-identical for j1 and j4" true
    (results ~jobs:1 = results ~jobs:4)

let test_warm_cache_rerun () =
  let dir = Test_dirs.fresh "warm" in
  let cold = Runner.create_ctx ~events:det_events ~jobs:2 ~cache_dir:dir () in
  let r1 = Experiments.fig2 cold in
  let s1 = Runner.stats cold in
  check_bool "cold run simulates" true (s1.Runner.sims > 0);
  check_int "cold run misses every lookup" s1.Runner.sims s1.Runner.cache_misses;
  check_int "cold run has no hits" 0 s1.Runner.cache_hits;
  (* a fresh ctx over the same directory must be served from disk *)
  let warm = Runner.create_ctx ~events:det_events ~jobs:2 ~cache_dir:dir () in
  let r2 = Experiments.fig2 warm in
  let s2 = Runner.stats warm in
  check_int "warm run performs zero simulations" 0 s2.Runner.sims;
  check_int "warm run misses nothing" 0 s2.Runner.cache_misses;
  check_int "warm run hits everything" s1.Runner.sims s2.Runner.cache_hits;
  check_string "identical rows" (Report.to_csv r1) (Report.to_csv r2);
  (* changing the events count invalidates the key, not the entry *)
  let other =
    Runner.create_ctx ~events:(det_events + 1) ~jobs:1 ~cache_dir:dir ()
  in
  ignore (Runner.run other (app "mysql") Runner.Baseline);
  check_int "different events: miss" 1 (Runner.stats other).Runner.cache_misses

let test_report_timing_line () =
  let tm =
    {
      Report.wall_s = 1.5;
      sims = 24;
      sim_seconds = 4.25;
      cache_hits = 0;
      cache_misses = 24;
    }
  in
  check_string "format" "timing: wall=1.50s sim-wall=4.25s sims=24 cache-hits=0 cache-misses=24"
    (Report.timing_line tm);
  let r =
    Report.with_timing tm
      (Report.make ~id:"figX" ~title:"t" ~header:[ "app"; "a" ] [ ("x", [ 1.0 ]) ])
  in
  check_bool "printed" true
    (let s = Report.to_string r in
     let sub = "timing: wall=" in
     let n = String.length s and m = String.length sub in
     let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
     scan 0);
  check_bool "csv excludes timing" true
    (Report.to_csv r = Report.to_csv { r with Report.timing = None })

(* ------------------------------------------------------------------ *)
(* Arena replay: closure equivalence, persistent arena cache          *)
(* ------------------------------------------------------------------ *)

let arena_techniques =
  [
    Runner.Baseline;
    Runner.Ideal;
    Runner.Mtage_sc;
    Runner.Rombf 4;
    Runner.Branchnet (Whisper_branchnet.Branchnet.Budget 8192);
    Runner.Whisper Whisper_core.Config.default;
  ]

let test_arena_matches_closure_all_techniques () =
  (* the packed-arena replay (default) must be byte-identical to the
     closure-source oracle for every technique *)
  let closure =
    Runner.create_ctx ~events:det_events ~jobs:1 ~replay:`Closure ()
  in
  let arena = Runner.create_ctx ~events:det_events ~jobs:1 ~replay:`Arena () in
  check_bool "modes stick" true
    (Runner.replay closure = `Closure && Runner.replay arena = `Arena);
  let a = app "cassandra" in
  List.iter
    (fun t ->
      let rc = Runner.run closure a t in
      let ra = Runner.run arena a t in
      check_bool (Runner.technique_name t ^ " byte-identical") true (rc = ra))
    arena_techniques;
  check_bool "arena mode built arenas" true
    ((Runner.stats arena).Runner.arena_builds > 0);
  check_int "closure mode built none" 0
    (Runner.stats closure).Runner.arena_builds

let test_arena_cache_warm_and_corrupt () =
  let dir = Test_dirs.fresh "arena" in
  let a = app "cassandra" in
  let cold = Runner.create_ctx ~events:det_events ~jobs:1 ~cache_dir:dir () in
  let built = Runner.arena cold a ~input:1 in
  let s = Runner.stats cold in
  check_int "cold: one build" 1 s.Runner.arena_builds;
  check_int "cold: one cache miss" 1 s.Runner.arena_cache_misses;
  check_int "cold: no hits" 0 s.Runner.arena_cache_hits;
  (* the in-process memo short-circuits the second request entirely *)
  ignore (Runner.arena cold a ~input:1);
  check_int "memoized: no second lookup" 1
    (Runner.stats cold).Runner.arena_cache_misses;
  (* a fresh ctx over the same directory loads from disk, no rebuild *)
  let warm = Runner.create_ctx ~events:det_events ~jobs:1 ~cache_dir:dir () in
  let loaded = Runner.arena warm a ~input:1 in
  let sw = Runner.stats warm in
  check_int "warm: zero builds" 0 sw.Runner.arena_builds;
  check_int "warm: one hit" 1 sw.Runner.arena_cache_hits;
  check_string "warm arena identical"
    (Whisper_trace.Arena.digest built)
    (Whisper_trace.Arena.digest loaded);
  (* corrupt every cached arena on disk: the next ctx must drop the
     entries, count the drops, and regenerate an identical arena *)
  let arenas_dir = Filename.concat dir Arena_cache.default_subdir in
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".arena" then begin
        let oc = open_out_bin (Filename.concat arenas_dir f) in
        output_string oc "WARCgarbage";
        close_out oc
      end)
    (Sys.readdir arenas_dir);
  let fresh = Runner.create_ctx ~events:det_events ~jobs:1 ~cache_dir:dir () in
  let regen = Runner.arena fresh a ~input:1 in
  let sf = Runner.stats fresh in
  check_int "corrupt entry: rebuilt" 1 sf.Runner.arena_builds;
  check_int "corrupt entry: counted as a miss" 1 sf.Runner.arena_cache_misses;
  check_string "regenerated arena identical"
    (Whisper_trace.Arena.digest built)
    (Whisper_trace.Arena.digest regen);
  check_bool "corrupt drop reported in fault summary" true
    ((Runner.fault_summary fresh).Report.cache_corrupt_dropped >= 1)

(* ------------------------------------------------------------------ *)
(* Trained specs: memoized per profile, one BranchNet walk            *)
(* ------------------------------------------------------------------ *)

module Tm = Whisper_util.Telemetry
module Bn = Whisper_branchnet.Branchnet

(* What [f] adds to the two training counters and to the train spans. *)
let training f =
  let count snap =
    ( Tm.counter_value snap "runner.rombf.trained",
      Tm.counter_value snap "runner.branchnet.candidates_trained",
      List.length
        (List.filter
           (fun s -> String.starts_with ~prefix:"train/" s.Tm.sp_name)
           (Tm.spans snap)) )
  in
  let r0, b0, s0 = count (Tm.snapshot ()) in
  f ();
  let r1, b1, s1 = count (Tm.snapshot ()) in
  (r1 - r0, b1 - b0, s1 - s0)

let make_exec_arena ctx a t =
  let arena = Runner.arena ctx a ~input:1 in
  ignore
    (Runner.make_exec_arena ctx a t ~train_inputs:[ 0 ]
       ~kb:(Runner.baseline_kb ctx) ~arena)

let test_second_make_exec_trains_nothing () =
  let ctx = Runner.create_ctx ~events:det_events () in
  let a = app "python" in
  ignore (Runner.profile ctx a);
  List.iter
    (fun (t, trains) ->
      let name = Runner.technique_name t in
      let rombf, candidates, spans =
        training (fun () -> make_exec_arena ctx a t)
      in
      check_bool (name ^ ": the first call trains") true
        (trains (rombf, candidates) && spans = 1);
      check_bool (name ^ ": a second call trains nothing") true
        (training (fun () -> make_exec_arena ctx a t) = (0, 0, 0));
      check_bool (name ^ ": nor does the closure path") true
        (training (fun () ->
             let (_ : Whisper_trace.Branch.event -> bool) =
               Runner.make_exec ctx a t ~train_inputs:[ 0 ]
                 ~kb:(Runner.baseline_kb ctx)
             in
             ())
        = (0, 0, 0)))
    [
      (Runner.Rombf 8, fun (r, c) -> r = 1 && c = 0);
      (Runner.Branchnet (Bn.Budget 32768), fun (r, c) -> r = 0 && c > 0);
    ]

let test_budgets_share_one_walk () =
  let ctx = Runner.create_ctx ~events:det_events () in
  let a = app "python" in
  let alone = ref 0 in
  ignore
    (Bn.take
       (Bn.walk ~on_train:(fun () -> incr alone) (Runner.profile ctx a))
       Bn.Unlimited);
  let _, candidates, spans =
    training (fun () ->
        List.iter
          (fun b -> make_exec_arena ctx a (Runner.Branchnet b))
          Bn.[ Budget 8192; Budget 32768; Unlimited ])
  in
  check_bool "the unlimited walk trains candidates" true (!alone > 0);
  check_int "8 KB, 32 KB, unlimited train the unlimited walk's candidates"
    !alone candidates;
  check_int "one train span per budget" 3 spans

(* [technique_name] prints both budgets as 7KB-branchnet; their keys,
   and so their memo entries and results, must stay apart *)
let test_budgets_keyed_by_bytes () =
  let ctx = Runner.create_ctx ~events:60_000 () in
  let a = app "python" in
  let b7 = Runner.Branchnet (Bn.Budget 7168)
  and b8 = Runner.Branchnet (Bn.Budget 8000) in
  let key t =
    Runner.run_key ctx a t ~train_inputs:[ 0 ] ~test_input:1
      ~kb:(Runner.baseline_kb ctx)
  in
  check_bool "distinct keys" true (key b7 <> key b8);
  check_string "a whole-KB budget keeps its name" "8KB-branchnet"
    (Runner.technique_key (Runner.Branchnet (Bn.Budget 8192)));
  let models budget =
    Bn.model_count (Bn.train ~budget (Runner.profile ctx a))
  in
  check_bool "the budgets deploy different models" true
    (models (Bn.Budget 7168) <> models (Bn.Budget 8000));
  check_bool "distinct results" true
    (Runner.run ctx a b7 <> Runner.run ctx a b8)

let test_prior_techniques_across_jobs () =
  let apps = [ app "python"; app "mysql" ] in
  let techniques = List.map snd Experiments.prior_techniques in
  let batch ~jobs =
    let ctx = Runner.create_ctx ~events:det_events ~jobs () in
    let trained =
      training (fun () ->
          Runner.run_batch ctx
            (List.concat_map
               (fun a -> List.map (fun t -> Runner.sim a t) techniques)
               apps))
    in
    ( List.concat_map (fun a -> List.map (Runner.run ctx a) techniques) apps,
      trained )
  in
  let r1, ((rombf, candidates, spans) as t1) = batch ~jobs:1 in
  let r4, t4 = batch ~jobs:4 in
  check_bool "results identical at -j 1 and -j 4" true (r1 = r4);
  check_bool "training counters and spans identical" true (t1 = t4);
  check_int "one ROMBF spec per app and n" 4 rombf;
  check_bool "BranchNet candidates trained" true (candidates > 0);
  check_int "one train span per app and technique" 10 spans

let test_technique_names_round_trip () =
  List.iter
    (fun t ->
      let name = Runner.technique_name t in
      check_bool (name ^ " parses back") true
        (Runner.technique_of_name name = Some t);
      check_bool (name ^ " parses in upper case") true
        (Runner.technique_of_name (String.uppercase_ascii name) = Some t))
    (List.map snd Experiments.prior_techniques
    @ Runner.
        [ Baseline; Ideal; Mtage_sc; Whisper Whisper_core.Config.default ]);
  List.iter
    (fun (alias, t) ->
      check_bool (alias ^ " is an alias") true
        (Runner.technique_of_name alias = Some t))
    Runner.
      [
        ("baseline", Baseline);
        ("mtage", Mtage_sc);
        ("rombf4", Rombf 4);
        ("rombf8", Rombf 8);
        ("branchnet8k", Branchnet (Bn.Budget 8192));
        ("branchnet32k", Branchnet (Bn.Budget 32768));
        ("branchnet", Branchnet Bn.Unlimited);
      ];
  check_bool "an unknown name is refused" true
    (Runner.technique_of_name "16KB-branchnet" = None)

(* ------------------------------------------------------------------ *)
(* Chaos mode: fault injection, degradation, determinism              *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub s i m = sub || scan (i + 1)) in
  scan 0

let test_report_faults_line () =
  let f =
    {
      Report.injected = 5;
      observed = 7;
      retries = 4;
      quarantined = 2;
      cache_write_failures = 1;
      cache_corrupt_dropped = 3;
    }
  in
  check_string "format"
    "faults: injected=5 observed=7 retries=4 quarantined=2 cache-write-fail=1 \
     cache-corrupt-drop=3"
    (Report.faults_line f);
  let r =
    Report.with_faults f
      (Report.make ~id:"figX" ~title:"t" ~header:[ "app"; "a" ]
         [ ("x", [ 1.0 ]); ("y", [ Float.nan ]) ])
  in
  let s = Report.to_string r in
  check_bool "faults line printed" true (contains s "faults: injected=5");
  check_bool "nan cells render as DEGRADED" true (contains s "DEGRADED");
  check_bool "csv excludes faults" true
    (Report.to_csv r = Report.to_csv { r with Report.faults = None })

let chaos_ctx ~jobs ?(faults = 0.5) ?(fault_seed = 7) () =
  Runner.create_ctx ~events:det_events ~jobs ~faults ~fault_seed ~retries:1
    ~hang_s:0.05 ()

let test_chaos_determinism () =
  (* same fault seed → byte-identical table and identical quarantine,
     whatever the job count *)
  let seq = chaos_ctx ~jobs:1 () in
  let par = chaos_ctx ~jobs:4 () in
  let a = Experiments.fig1 seq in
  let b = Experiments.fig1 par in
  check_string "chaos fig1 byte-identical across job counts"
    (Report.to_csv a) (Report.to_csv b);
  check_bool "identical quarantine" true
    (Runner.quarantined seq = Runner.quarantined par);
  let fs = Runner.fault_summary seq in
  let fp = Runner.fault_summary par in
  check_bool "faults were actually injected" true (fs.Report.injected > 0);
  check_bool "identical fault summaries" true (fs = fp)

let test_chaos_degrades_not_aborts () =
  let ctx =
    Runner.create_ctx ~events:det_events ~jobs:2 ~faults:1.0 ~fault_seed:1
      ~retries:0 ~hang_s:0.02 ()
  in
  (* rate 1.0: every work item faulted; persistent byte faults exhaust
     their single attempt and must degrade, not raise *)
  let r = Experiments.fig1 ctx in
  let q = Runner.quarantined ctx in
  check_bool "some work quarantined" true (q <> []);
  check_bool "quarantined errors are typed Injected" true
    (List.exists
       (fun (_, e) ->
         e.Whisper_util.Whisper_error.stage = Whisper_util.Whisper_error.Injected)
       q);
  check_bool "table renders DEGRADED rows" true
    (contains (Report.to_string r) "DEGRADED");
  let f = Runner.fault_summary ctx in
  check_bool "summary counts quarantine" true
    (f.Report.quarantined = List.length q && f.Report.observed > 0)

let test_no_faults_means_no_degradation () =
  let ctx = Runner.create_ctx ~events:det_events ~jobs:2 ~faults:0.0 () in
  let r = Experiments.fig1 ctx in
  check_bool "no quarantine" true (Runner.quarantined ctx = []);
  let f = Runner.fault_summary ctx in
  check_bool "all counters zero" true
    (f
    = {
        Report.injected = 0;
        observed = 0;
        retries = 0;
        quarantined = 0;
        cache_write_failures = 0;
        cache_corrupt_dropped = 0;
      });
  check_bool "no DEGRADED rows" true
    (not (contains (Report.to_string r) "DEGRADED"))

let () =
  Alcotest.run "whisper_runner"
    [
      ( "pool",
        Alcotest.
          [
            test_case "map preserves order" `Quick test_pool_map_ordered;
            test_case "map matches sequential" `Quick test_pool_map_matches_sequential;
            test_case "exception isolated" `Quick test_pool_exception_isolated;
            test_case "submit/await/shutdown" `Quick test_pool_submit_await;
            test_case "map_pool reusable" `Quick test_pool_map_pool_reusable;
            test_case "fanout width" `Quick test_pool_fanout_width;
            test_case "nested fanout inline" `Quick
              test_pool_nested_fanout_inline;
            test_case "shared pool grows" `Quick test_pool_shared_grows;
            test_case "await timeout" `Quick test_pool_await_timeout;
            test_case "retry transient" `Quick test_pool_retry_transient;
            test_case "retry exhausted" `Quick test_pool_retry_exhausted;
            test_case "hung task recovers" `Quick test_pool_hung_task_recovers;
            test_case "hung task times out" `Quick test_pool_hung_task_times_out;
          ] );
      ( "result-cache",
        Alcotest.
          [
            test_case "round trip" `Quick test_cache_roundtrip;
            test_case "corrupt recovery" `Quick test_cache_corrupt_recovery;
            test_case "key mismatch" `Quick test_cache_key_mismatch;
            test_case "degradation counters" `Quick test_cache_counters;
            test_case "corrupt read hook" `Quick test_cache_corrupt_hook;
          ] );
      ( "runner",
        Alcotest.
          [
            test_case "parallel determinism" `Quick test_parallel_determinism;
            test_case "run_batch dedups" `Quick test_run_batch_dedups;
            test_case "whisper batch identical across job counts" `Quick
              test_run_batch_whisper_parallel_identity;
            test_case "warm cache rerun" `Quick test_warm_cache_rerun;
            test_case "report timing line" `Quick test_report_timing_line;
          ] );
      ( "arena-replay",
        Alcotest.
          [
            test_case "matches closure for every technique" `Quick
              test_arena_matches_closure_all_techniques;
            test_case "persistent cache: warm + corrupt recovery" `Quick
              test_arena_cache_warm_and_corrupt;
          ] );
      ( "spec-memo",
        Alcotest.
          [
            test_case "second make_exec trains nothing" `Quick
              test_second_make_exec_trains_nothing;
            test_case "budgets share one BranchNet walk" `Quick
              test_budgets_share_one_walk;
            test_case "budgets keyed by bytes" `Quick
              test_budgets_keyed_by_bytes;
            test_case "prior techniques identical across job counts" `Quick
              test_prior_techniques_across_jobs;
            test_case "technique names round-trip" `Quick
              test_technique_names_round_trip;
          ] );
      ( "chaos",
        Alcotest.
          [
            test_case "report faults line" `Quick test_report_faults_line;
            test_case "determinism across job counts" `Quick
              test_chaos_determinism;
            test_case "degrades instead of aborting" `Quick
              test_chaos_degrades_not_aborts;
            test_case "faults off = clean run" `Quick
              test_no_faults_means_no_degradation;
          ] );
    ]

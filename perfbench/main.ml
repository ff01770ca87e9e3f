(* The benchmark's main loop: one workload, closed loop, one client, one
   domain.  See README.md in this directory for what each workload and
   metric means.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --self-test
     main.exe --record-expected > perfbench/expected_seed0.txt *)

(* Branch events per arena: the injection pass's trace length, the least
   at which Runner feeds that pass from the arena. *)
let events = Whisper_core.Inject.default_trace_events
let setups = 3
let state_root = ".perfbench_state"
let expected_path = Filename.concat "perfbench" "expected_seed0.txt"

(* Input pairs the seed selects from.  App_model reshuffles popularity
   with a number of swaps proportional to the input index, so an
   unreduced seed of 10^9 would spend hours generating one arena. *)
let input_pairs = 16
let input_seed seed = ((seed mod input_pairs) + input_pairs) mod input_pairs

(* ---- host facts read from the process's own status ---- *)

let proc_status key =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ k; v ] when k = key ->
                 String.trim v |> String.split_on_char ' ' |> List.hd
                 |> int_of_string_opt
             | _ -> None)

let max_rss_mb () =
  Option.fold ~none:nan ~some:(fun kb -> float_of_int kb /. 1024.0)
    (proc_status "VmHWM")

(* ---- samples and statistics ---- *)

type sample = {
  label : string;
  traced : bool;
  ms : float;  (** at nominal host speed (Host_speed) *)
  raw_ms : float;  (** as measured *)
  events : int;
  failed : string list;
}

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s and n = List.length s in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it. *)
let tail xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 11 then None
  else Some (100.0 *. float_of_int (n - 10) /. float_of_int n, a.(n - 11))

let n_ops = ref 0

let exec_op check ~traced (op : Op.t) =
  let failed, raw_ms, scale =
    Host_speed.timed (fun () ->
        Whisper_util.Telemetry.set_enabled traced;
        let failed =
          match Span.op ~label:op.label op.run with
          | outputs -> Check.verify check outputs
          | exception e -> [ Printf.sprintf "raised %s" (Printexc.to_string e) ]
        in
        Whisper_util.Telemetry.set_enabled false;
        failed)
  in
  incr n_ops;
  Printf.printf "# op %d %s%s %.1f ms x %.3f = %.1f ms %s\n%!" !n_ops op.label
    (if traced then " (traced)" else "")
    raw_ms scale (raw_ms *. scale)
    (if failed = [] then "ok" else "FAILED: " ^ String.concat ", " failed);
  {
    label = op.label;
    traced;
    ms = raw_ms *. scale;
    raw_ms;
    events = op.events;
    failed;
  }


(* Set up [setups] times from scratch and keep the last; each set-up ends
   with its untimed warm-up ops.  A set-up's time at nominal speed is its
   builds' plus each warm-up op's, each scaled by the host speed around
   it. *)
let setup check (w : Op.workload) =
  let rec go k times warm =
    Gc.compact ();
    let slots, build_ms, scale = Host_speed.timed w.prepare in
    let warm_k =
      List.map
        (fun slot -> exec_op check ~traced:false (slots ~slot ~traced:false))
        w.warmup
    in
    let ms =
      List.fold_left (fun acc s -> acc +. s.ms) (build_ms *. scale) warm_k
    in
    let times = (ms /. 1e3) :: times in
    if k + 1 < setups then go (k + 1) times (warm @ warm_k)
    else (times, slots, warm @ warm_k)
  in
  go 0 [] []

(* Runs whole cycles until the one ending nearest to [seconds].  Also
   returns the peak RSS after the first cycle: the process's peak can
   creep up from op to op, so reading it at the end would tie it to how
   many ops the host's speed allowed. *)
let measure check (w : Op.workload) slots ~seconds ~trace =
  let t0 = Span.now_s () in
  let min_cycles = if trace then 2 else 1 in
  let rec go c acc rss =
    let traced = trace && c mod 2 = 1 in
    let acc =
      acc
      @ List.init w.cycle (fun slot ->
            exec_op check ~traced (slots ~slot ~traced))
    in
    let rss = if c = 0 then max_rss_mb () else rss in
    let elapsed = Span.now_s () -. t0 in
    let per_cycle = elapsed /. float_of_int (c + 1) in
    if c + 1 < min_cycles || elapsed +. (0.5 *. per_cycle) < seconds then
      go (c + 1) acc rss
    else (acc, rss)
  in
  go 0 [] nan

(* ---- metrics ---- *)

let per_layer spans ~overhead_pct =
  let ms name = (name ^ "_ms", "ms", Span.ms_per_op spans name) in
  let nspe metric span = (metric, "ns/event", Span.ns_per_event spans span) in
  let count name unit = (name, unit, Span.count_mean name) in
  let ratio name num den =
    let d = Span.count_mean den in
    (name, "ratio", if d = 0.0 then 0.0 else Span.count_mean num /. d)
  in
  let techniques =
    List.map Whisper_sim.Runner.technique_name Replay_hot.techniques
  in
  [
    ms "arena.build";
    nspe "arena.ns_per_event" "arena.build";
    ms "profile.collect";
    count "profile.candidates" "count";
    ms "analyze.run";
    count "analyze.hints" "count";
    ratio "analyze.hint_yield" "analyze.hints" "profile.candidates";
    ms "inject.plan";
    ms "runtime.create";
    ms "make_exec.whisper";
    ms "make_exec.8b-rombf";
    ms "make_exec.32KB-branchnet";
  ]
  @ List.map
      (fun t -> nspe ("machine." ^ t ^ ".ns_per_event") ("machine." ^ t))
      techniques
  @ [
      count "sim.tage-scl.mpki" "MPKI";
      count "sim.whisper.mpki" "MPKI";
      count "sim.tage-scl.misp_stall_pct" "%";
      count "sim.tage-scl.fe_stall_pct" "%";
      count "sim.tage-scl.exposed_miss_ratio" "ratio";
      count "sim.whisper_speedup_pct" "%";
      ms "serve.collect";
      nspe "serve.collect_ns_per_event" "serve.collect";
      ms "serve.ingest";
      ms "serve.window_merge";
      ms "serve.rescore";
      ms "serve.analyze";
      ms "serve.journal_append";
      ms "serve.store";
      count "serve.analyses" "count";
      count "serve.rollouts" "count";
      count "serve.drift_detected" "count";
      ratio "serve.rollout_ratio" "serve.rollouts" "serve.analyses";
      ("residual_ms", "ms", Span.residual_ms spans);
      ("trace_overhead_pct", "%", overhead_pct);
    ]

let json_line ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, unit, v) ->
        let v = if Float.is_finite v then v else 0.0 in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " m)

(* ---- modes ---- *)

let workload_of ~name ~seed =
  match name with
  | "train-cold" -> Some (Train_cold.workload ~events ~seed)
  | "replay-hot" -> Some (Replay_hot.workload ~events ~seed)
  | "serve-drift" ->
      Some (Serve_drift.workload ~state_root ~config:Whisper_sim.Serve.default)
  | _ -> None

let bench ~name ~seed:given ~seconds ~trace =
  let seed = input_seed given in
  let w =
    match workload_of ~name ~seed with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ name);
        exit 2
  in
  let committed =
    if seed = 0 || name = "serve-drift" then
      Some (Check.load_committed ~path:expected_path ~workload:name)
    else None
  in
  let check = Check.create ?committed () in
  let serve_cfg = Whisper_sim.Serve.default ~state_dir:state_root in
  Printf.printf "# workload=%s seed=%d%s seconds=%d trace=%d\n" name given
    (if name = "serve-drift" then " (ignored: Serve.config has no input seed)"
     else
       Printf.sprintf " (mod %d = %d: train input %d, test input %d)"
         input_pairs seed (2 * seed) ((2 * seed) + 1))
    seconds (Bool.to_int trace);
  Printf.printf
    "# host: nproc=%d ocaml=%s jobs=1 E=%d chunk_events=%d apps=%s\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version events serve_cfg.chunk_events
    (if name = "serve-drift" then String.concat "," serve_cfg.apps
     else String.concat "," Op.apps);
  Printf.printf "# outputs checked against %s\n%!"
    (if committed <> None then expected_path ^ " (committed)"
     else "the first op with the same key in this run");
  Whisper_util.Telemetry.set_enabled false;
  let threads0 = proc_status "Threads" in
  let cache_before = Sys.file_exists "_whisper_cache" in
  let setup_times, slots, warm = setup check w in
  let samples, rss_mb =
    measure check w slots ~seconds:(float_of_int seconds) ~trace
  in
  (* Each op removes its own state directory, so only the empty root may
     be left here. *)
  let state_left =
    Sys.file_exists state_root && Sys.readdir state_root <> [||]
  in
  Serve_drift.rm_rf state_root;
  let hygiene =
    List.filter_map Fun.id
      [
        (if proc_status "Threads" <> threads0 then
           Some "thread count changed: a domain pool was started"
         else None);
        (if state_left then Some "an op left its state directory behind"
         else None);
        (if Sys.file_exists "_whisper_cache" && not cache_before then
           Some "_whisper_cache was created"
         else None);
      ]
  in
  List.iter (fun h -> Printf.printf "# hygiene FAILED: %s\n" h) hygiene;
  let bad = List.filter (fun s -> s.failed <> []) in
  let attempted = List.length samples and failed = List.length (bad samples) in
  let untraced = List.filter (fun s -> not s.traced) samples in
  let traced = List.filter (fun s -> s.traced) samples in
  let ms_of = List.map (fun s -> s.ms) in
  let p50 = median (ms_of untraced) in
  Printf.printf "# setup_s: %s (median of %d)\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") setup_times))
    setups;
  Printf.printf
    "# op_ms_p50: %.1f at nominal host speed (%.1f as measured) over %d \
     untraced ops\n"
    p50
    (median (List.map (fun s -> s.raw_ms) untraced))
    (List.length untraced);
  (match tail (ms_of untraced) with
  | Some (p, v) -> Printf.printf "# op_ms_tail: p%.1f = %.1f ms\n" p v
  | None ->
      Printf.printf "# op_ms_tail: none (%d ops; a tail needs 11)\n"
        (List.length untraced));
  let metrics =
    if trace then begin
      let spans = Span.recorded () in
      Span.dump stderr spans;
      let overhead = 100.0 *. ((median (ms_of traced) /. p50) -. 1.0) in
      per_layer spans ~overhead_pct:overhead
    end
    else
      let secs = List.fold_left (fun a s -> a +. (s.ms /. 1e3)) 0.0 untraced in
      let events = List.fold_left (fun a s -> a + s.events) 0 untraced in
      [
        ("setup_s", "s", median setup_times);
        ("op_ms_p50", "ms", p50);
        ("events_per_s", "events/s", float_of_int events /. secs);
        ("max_rss_mb", "MB", rss_mb);
        ( "ops_ok_pct",
          "%",
          100.0 *. float_of_int (attempted - failed) /. float_of_int attempted );
      ]
  in
  let correct = failed = 0 && bad warm = [] && hygiene = [] in
  json_line ~correct ~attempted ~failed metrics

(* Seed-0 digests, one line per check key. *)
let record_expected () =
  List.iter
    (fun name ->
      let w = Option.get (workload_of ~name ~seed:0) in
      let slots = w.prepare () in
      List.init w.cycle Fun.id
      |> List.iter (fun slot ->
             List.iter
               (fun (key, digest) ->
                 Printf.printf "%s %s %s\n%!" name key digest)
               ((slots ~slot ~traced:false).Op.run ())))
    [ "train-cold"; "replay-hot"; "serve-drift" ];
  Serve_drift.rm_rf state_root

(* A tiny-size run of the checks themselves: a perturbed committed
   digest and a perturbed ledger digest must both be caught. *)
let self_test () =
  let ok = ref true in
  let expect what cond =
    Printf.printf "self-test: %s: %s\n%!" what (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  let perturb d =
    String.mapi (fun i c -> if i = 0 then if c = '0' then '1' else '0' else c) d
  in
  let module Runner = Whisper_sim.Runner in
  let first_app = Op.app (List.hd Op.apps) in
  let w = Replay_hot.workload ~events:20_000 ~seed:0 in
  let slots = w.prepare () in
  let op = slots ~slot:0 ~traced:false in
  let outputs = op.run () in
  expect "replay-hot op is deterministic" (op.run () = outputs);
  let ctx = Runner.create_ctx ~events:20_000 () in
  expect "replay-hot op equals Runner.run"
    (List.map
       (fun t ->
         ( first_app.name ^ "/" ^ Runner.technique_name t,
           Check.result_digest (Runner.run ctx first_app t) ))
       Replay_hot.techniques
    = outputs);
  let ctx = Runner.create_ctx ~events () in
  let plan = Runner.whisper_plan ctx first_app in
  expect "train-cold plan equals Runner.whisper_plan"
    (List.assoc (first_app.name ^ "/plan")
       ((Train_cold.op ~events ~seed:0 first_app.name).run ())
    = Check.hex (Bytes.to_string (Whisper_core.Plan_io.to_bytes plan)));
  let committed = Hashtbl.create 8 in
  List.iter (fun (k, d) -> Hashtbl.replace committed k d) outputs;
  let key, digest = List.hd outputs in
  expect "committed digests pass"
    (Check.verify (Check.create ~committed ()) outputs = []);
  Hashtbl.replace committed key (perturb digest);
  expect "perturbed committed digest is caught"
    (Check.verify (Check.create ~committed ()) outputs = [ key ]);
  let tiny ~state_dir =
    {
      (Whisper_sim.Serve.default ~state_dir) with
      generations = 4;
      chunk_events = 20_000;
      drift_flip = None;
    }
  in
  let last = ref None in
  let serve_op, replica =
    Serve_drift.ops ~state_root ~config:tiny ~last ~check_recovery:false
  in
  ignore (serve_op.run ());
  let outcome = Option.get !last in
  expect "replica follows the ledger"
    (match replica.run () with _ -> true | exception _ -> false);
  let perturbed =
    List.map
      (fun line ->
        String.split_on_char ' ' line
        |> List.map (fun tok ->
               if String.starts_with ~prefix:"plan=" tok && tok <> "plan=none"
               then "plan=" ^ perturb (String.sub tok 5 (String.length tok - 5))
               else tok)
        |> String.concat " ")
      outcome.ledger
  in
  last := Some { outcome with ledger = perturbed };
  expect "perturbed ledger plan digest is caught"
    (match replica.run () with _ -> false | exception Failure _ -> true);
  Serve_drift.rm_rf state_root;
  let lines = In_channel.with_open_text expected_path In_channel.input_all in
  let has w n =
    List.length
      (List.filter
         (fun l -> String.starts_with ~prefix:(w ^ " ") l)
         (String.split_on_char '\n' lines))
    = n
  in
  expect "committed seed-0 digests are complete"
    (has "train-cold" (2 * List.length Op.apps)
    && has "replay-hot"
         (List.length Replay_hot.techniques * List.length Op.apps)
    && has "serve-drift" 1);
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let mode = ref `Bench in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "train-cold | replay-hot | serve-drift");
      ("--seed", Arg.Set_int seed, "workload seed (default 0)");
      ("--seconds", Arg.Set_int seconds, "measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "1: traced run, per-layer metrics");
      ("--self-test", Arg.Unit (fun () -> mode := `Self_test), "check the checks");
      ( "--record-expected",
        Arg.Unit (fun () -> mode := `Record),
        "print the seed-0 digests" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match !mode with
  | `Self_test -> self_test ()
  | `Record -> record_expected ()
  | `Bench ->
      bench ~name:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)

(* Perf-regression and metrics-schema checker for CI.

   Modes:
     check_regression --kind search --baseline F --fresh F [--tolerance T]
                      [--floor NAME=V]...
     check_regression --kind replay --baseline F --fresh F [--tolerance T]
                      [--floor NAME=V]...
     check_regression --kind serve --baseline F --fresh F [--tolerance T]
                      [--floor NAME=V]...
         Compare a freshly generated BENCH_*.json against the committed
         baseline: every key speedup ratio must stay within the relative
         tolerance band (default 0.30 = fail on >30%% regression), the
         workload-shape equality fields must match when the two runs used
         the same events/smoke settings, the replay bench's measured
         telemetry overhead must stay under max(5%%, 5 ns/event), and the
         replay bench must report pipeline_identical (compiled arena
         strategies byte-identical to the closure path),
         branchnet_sgd_identical (BranchNet's SGD kernel trains the
         per-bit oracle's weights bit for bit), generator_identical
         (App_model builds the pre-rewrite generator's arena byte for
         byte) and profile_collect_identical (the dense-id passes give
         the pre-rewrite collector's Profile_io bytes).

         Each --floor NAME=V (repeatable) additionally requires the fresh
         run's numeric field NAME to be >= V — an absolute floor,
         independent of the committed baseline, for fields like
         parallel_speedup_j2 where "no worse than baseline" is not the
         contract.  Floors named parallel_speedup_j<K> are skipped (with
         a note, not a failure) when the fresh run reports
         host_cores < K: a K-way scaling floor is unfalsifiable on a
         host that cannot run K domains in parallel.

         The serve kind's key fields are lower-is-better latencies
         (ns/sample, ms): the band inverts to a ceiling — fresh must stay
         under baseline * (1 + tolerance).  The per-sample ingest ceiling
         binds at any workload size; the per-window rescore ceiling only
         binds when baseline and fresh ran the same events/smoke
         configuration.  The bench must always report
         serve_generations_identical (interrupted + resumed scenario
         ledger byte-identical to the uninterrupted one) and
         serve_collect_identical (arena-collected chunk byte-identical
         to the closure oracle's).

     check_regression --metrics-valid FILE [--require COUNTER]
         Assert FILE is a schema-valid whisper-metrics document with
         nonzero event and span counts.  COUNTER (default machine.events)
         is the counter that must be present and nonzero — serve runs
         never touch the machine model, so their smoke gate passes
         --require serve.generations instead.

     check_regression --metrics-equal A B
         Assert two metrics documents agree on every value-metric
         (counters and histograms) after stripping the wall-time spans
         section — the -j1 vs -j4 determinism contract. *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.eprintf "FAIL: %s\n" s)
    fmt

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n" s) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let load path =
  match Whisper_util.Sjson.parse (read_file path) with
  | Ok v -> v
  | Error e ->
      Printf.eprintf "FAIL: %s does not parse as JSON: %s\n" path e;
      exit 1

let num_field doc name =
  Option.bind (Whisper_util.Sjson.member name doc) Whisper_util.Sjson.num

let require_num path doc name =
  match num_field doc name with
  | Some v -> v
  | None ->
      Printf.eprintf "FAIL: %s is missing numeric field %S\n" path name;
      exit 1

(* ------------------------------------------------------------------ *)
(* BENCH_*.json comparison                                            *)
(* ------------------------------------------------------------------ *)

let ratio_fields = function
  | `Search ->
      [
        "scorer_speedup";
        "find_speedup";
        "search_speedup";
        "decide_speedup";
        "parallel_speedup";
      ]
  | `Replay ->
      [
        "replay_speedup";
        "whisper_runtime_speedup";
        "batch_cold_speedup";
        "batch_delivery_speedup";
        (* the compiled-pipeline ratios (sim_<technique>_speedup) are
           deliberately NOT in the baseline-relative band: same-process
           closure/arena ratios swing ~1.3-2.2x run to run on shared
           hosts, so their contract is the absolute --floor gates the
           workflows pass instead *)
      ]
  | `Serve -> []

(* Lower-is-better latency fields: the tolerance band inverts to a
   ceiling (fresh <= baseline * (1 + tolerance)).  Per-sample figures
   are size-normalized, so they gate across workload sizes; absolute
   per-window figures scale with the workload and only gate when
   baseline and fresh ran the same events/smoke configuration. *)
let ceiling_fields = function
  | `Serve -> [ "serve_ingest_ns_per_sample" ]
  | `Search | `Replay -> []

let sized_ceiling_fields = function
  | `Serve -> [ "serve_rescore_ms" ]
  | `Search | `Replay -> []

(* Workload-shape fields: a mismatch means the two runs did different
   work, which is a configuration error, not a perf regression — but
   only when both runs used the same events/smoke settings. *)
let equality_fields = function
  | `Search -> [ "hints"; "candidate_branches"; "candidate_formulas" ]
  | `Replay -> [ "batch_techniques" ]
  | `Serve -> [ "serve_generations"; "serve_rollouts"; "serve_final_hints" ]

let same_workload baseline fresh =
  num_field baseline "events" = num_field fresh "events"
  && Whisper_util.Sjson.member "smoke" baseline
     = Whisper_util.Sjson.member "smoke" fresh

(* Absolute floors (--floor NAME=V) on the fresh run.  A
   parallel_speedup_j<K> floor only binds when the fresh run's host
   actually had K cores to scale onto. *)
let floor_min_cores name =
  let prefix = "parallel_speedup_j" in
  let pl = String.length prefix in
  if String.length name > pl && String.sub name 0 pl = prefix then
    int_of_string_opt (String.sub name pl (String.length name - pl))
  else None

let check_floors ~fresh_path fresh floors =
  let host_cores =
    Option.map int_of_float (num_field fresh "host_cores")
  in
  List.iter
    (fun (name, floor_v) ->
      match (floor_min_cores name, host_cores) with
      | Some k, Some c when c < k ->
          note "%s floor skipped: host has %d cores (< %d)" name c k
      | _ ->
          let f = require_num fresh_path fresh name in
          if f < floor_v then
            fail "%s below floor: %.2f < %.2f" name f floor_v
          else note "%s: %.2f (floor %.2f) ok" name f floor_v)
    floors

let check_bool_field name fresh_path fresh =
  match Whisper_util.Sjson.member name fresh with
  | Some (Whisper_util.Sjson.Bool true) -> note "%s: true ok" name
  | _ -> fail "%s is not true in %s" name fresh_path

let check_parallel_identical fresh_path fresh =
  check_bool_field "parallel_identical" fresh_path fresh

let check_bench kind ~baseline_path ~fresh_path ~tolerance ~floors =
  let baseline = load baseline_path and fresh = load fresh_path in
  let same = same_workload baseline fresh in
  let ceilings =
    if same then ceiling_fields kind @ sized_ceiling_fields kind
    else ceiling_fields kind
  in
  List.iter
    (fun name ->
      let b = require_num baseline_path baseline name in
      let f = require_num fresh_path fresh name in
      let floor_v = b *. (1.0 -. tolerance) in
      if f < floor_v then
        fail "%s regressed: %.2f -> %.2f (tolerance floor %.2f)" name b f
          floor_v
      else note "%s: baseline %.2f, fresh %.2f (floor %.2f) ok" name b f floor_v)
    (ratio_fields kind);
  List.iter
    (fun name ->
      let b = require_num baseline_path baseline name in
      let f = require_num fresh_path fresh name in
      let ceiling = b *. (1.0 +. tolerance) in
      if f > ceiling then
        fail "%s regressed: %.2f -> %.2f (tolerance ceiling %.2f)" name b f
          ceiling
      else
        note "%s: baseline %.2f, fresh %.2f (ceiling %.2f) ok" name b f ceiling)
    ceilings;
  if (not same) && sized_ceiling_fields kind <> [] then
    note "events/smoke differ: skipping sized ceilings";
  if same then
    List.iter
      (fun name ->
        let b = require_num baseline_path baseline name in
        let f = require_num fresh_path fresh name in
        if b <> f then fail "%s changed: %.0f -> %.0f" name b f
        else note "%s: %.0f ok" name b)
      (equality_fields kind)
  else
    note "events/smoke differ between baseline and fresh: skipping equality fields";
  check_floors ~fresh_path fresh floors;
  match kind with
  | `Search -> check_parallel_identical fresh_path fresh
  | `Serve ->
      (* the serve bench replays its scripted scenario interrupted +
         resumed and asserts the ledgers byte-identical, and collects
         one chunk both ways and asserts the bytes equal, before
         emitting JSON; the fields are required so a bench that
         silently stopped asserting fails the gate *)
      check_bool_field "serve_generations_identical" fresh_path fresh;
      check_bool_field "serve_collect_identical" fresh_path fresh
  | `Replay -> (
      check_parallel_identical fresh_path fresh;
      (* the replay bench asserts byte-identity of the compiled arena
         strategies against the closure path for every technique before
         it emits JSON; the field is required so a bench that silently
         stopped asserting fails the gate *)
      check_bool_field "pipeline_identical" fresh_path fresh;
      check_bool_field "branchnet_sgd_identical" fresh_path fresh;
      check_bool_field "generator_identical" fresh_path fresh;
      check_bool_field "profile_collect_identical" fresh_path fresh;
      (* Prefer the paired overhead statistic (median of interleaved
         per-round on-off differences) when the bench emits it: it
         cancels round-local drift that the difference-of-medians still
         absorbs.  Fall back to on - off for older artifacts. *)
      let overhead =
        match num_field fresh "telemetry_overhead_ns_per_event" with
        | Some d -> Some d
        | None -> (
            match
              (num_field fresh "telemetry_on_ns_per_event",
               num_field fresh "telemetry_off_ns_per_event")
            with
            | Some on_ns, Some off_ns -> Some (on_ns -. off_ns)
            | _ -> None)
      in
      match (overhead, num_field fresh "telemetry_off_ns_per_event") with
      | Some d, Some off_ns ->
          let budget = Float.max (0.05 *. off_ns) 5.0 in
          if d > budget then
            fail "telemetry overhead too high: %.2f ns/event (budget %.2f)" d
              budget
          else note "telemetry overhead: %.2f ns/event (budget %.2f) ok" d budget
      | _ -> fail "%s is missing the telemetry overhead fields" fresh_path)

(* ------------------------------------------------------------------ *)
(* metrics.json checks                                                *)
(* ------------------------------------------------------------------ *)

let check_metrics_valid ?(required = "machine.events") path =
  let doc = load path in
  let open Whisper_util.Sjson in
  (match member "schema" doc with
  | Some (Str "whisper-metrics") -> note "schema: whisper-metrics ok"
  | _ -> fail "%s: schema member is not \"whisper-metrics\"" path);
  (match Option.bind (member "version" doc) int with
  | Some v when v = Whisper_util.Telemetry.schema_version ->
      note "version: %d ok" v
  | Some v ->
      fail "%s: version %d, expected %d" path v
        Whisper_util.Telemetry.schema_version
  | None -> fail "%s: missing version" path);
  (match member "counters" doc with
  | Some (Obj members) ->
      if members = [] then fail "%s: counters object is empty" path
      else begin
        let nonzero =
          List.exists
            (fun (_, v) -> match num v with Some f -> f > 0.0 | None -> false)
            members
        in
        if nonzero then note "counters: %d, some nonzero ok" (List.length members)
        else fail "%s: every counter is zero" path
      end
  | _ -> fail "%s: missing counters object" path);
  (match Option.bind (member "counters" doc) (member required) with
  | Some v when num v > Some 0.0 -> note "%s nonzero ok" required
  | _ -> fail "%s: %s counter is missing or zero" path required);
  match Option.bind (member "spans" doc) (member "count") with
  | Some v when num v > Some 0.0 -> note "spans.count nonzero ok"
  | _ -> fail "%s: spans.count is missing or zero" path

let check_metrics_equal a_path b_path =
  let a = Whisper_util.Telemetry.strip_wall_time (load a_path) in
  let b = Whisper_util.Telemetry.strip_wall_time (load b_path) in
  let sa = Whisper_util.Sjson.to_string a in
  let sb = Whisper_util.Sjson.to_string b in
  if String.equal sa sb then
    note "value metrics identical (%d bytes compared)" (String.length sa)
  else
    fail
      "value metrics differ between %s and %s after stripping wall-time spans"
      a_path b_path

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: check_regression --kind search|replay|serve --baseline F --fresh F \
     [--tolerance T] [--floor NAME=V]...\n\
    \       check_regression --metrics-valid FILE [--require COUNTER]\n\
    \       check_regression --metrics-equal A B";
  exit 2

let () =
  let args = Array.to_list Sys.argv in
  (match args with
  | _ :: "--metrics-valid" :: path :: [] -> check_metrics_valid path
  | [ _; "--metrics-valid"; path; "--require"; counter ] ->
      check_metrics_valid ~required:counter path
  | _ :: "--metrics-equal" :: a :: b :: [] -> check_metrics_equal a b
  | _ :: rest ->
      let opts = Hashtbl.create 8 in
      let floors = ref [] in
      let rec parse = function
        | [] -> ()
        | "--floor" :: spec :: rest -> (
            match String.index_opt spec '=' with
            | Some i -> (
                let name = String.sub spec 0 i in
                let v = String.sub spec (i + 1) (String.length spec - i - 1) in
                match float_of_string_opt v with
                | Some v when name <> "" ->
                    floors := (name, v) :: !floors;
                    parse rest
                | _ -> usage ())
            | None -> usage ())
        | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
            Hashtbl.replace opts (String.sub key 2 (String.length key - 2)) value;
            parse rest
        | _ -> usage ()
      in
      parse rest;
      let get name = Hashtbl.find_opt opts name in
      let kind =
        match get "kind" with
        | Some "search" -> `Search
        | Some "replay" -> `Replay
        | Some "serve" -> `Serve
        | _ -> usage ()
      in
      let baseline_path = match get "baseline" with Some p -> p | None -> usage () in
      let fresh_path = match get "fresh" with Some p -> p | None -> usage () in
      let tolerance =
        match get "tolerance" with
        | Some t -> float_of_string t
        | None -> 0.30
      in
      check_bench kind ~baseline_path ~fresh_path ~tolerance
        ~floors:(List.rev !floors)
  | [] -> usage ());
  if !failures > 0 then begin
    Printf.eprintf "%d check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all checks passed"

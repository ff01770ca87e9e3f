(* Golden digests of every durable output.

   What must hold: the bytes a refactor of the persistence or planning
   layers could disturb stay exactly what they are.  Each case digests
   one output and compares it with a pinned value:
   - Plan_io bytes of Runner.whisper_plan for two catalog apps;
   - Profile_io bytes of Runner.profile_arena at three baseline budgets;
   - Result_cache entries of Runner.run for every technique, MTAGE-SC's
     also at 200 k events, and TAGE-SC-L's and Whisper's at 300 k,
     past the 64 KB geometry's usefulness aging;
   - one Arena_cache entry;
   - Arena digests of generated traces, and Profile_io bytes of two of
     them at 8 and 64 KB;
   - the Sweep and Serve manifest ids;
   - an in-process jobs = 1 sweep: report text + CSV and journal.bin;
   - a clean serve scenario: ledger, journal.bin and every plan file.

   Digests are MD5 (Stdlib Digest, the repo's content-key hash).  A
   pinned value changes only with a deliberate format or behaviour
   change, and then the commit that changes it says why.

   State dirs go through Test_dirs so runtest leaves nothing behind. *)

open Whisper_util
open Whisper_trace
open Whisper_sim

let events = 20_000
let md5 s = Digest.to_hex (Digest.string s)
let md5b b = md5 (Bytes.to_string b)
let app name = Option.get (Workloads.by_name name)
let check = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Plans, cache entries, manifest ids                                 *)
(* ------------------------------------------------------------------ *)

let test_plans () =
  let ctx = Runner.create_ctx ~events () in
  List.iter
    (fun (name, expected) ->
      let plan = Runner.whisper_plan ctx (app name) in
      check ("plan " ^ name) expected
        (md5b (Whisper_core.Plan_io.to_bytes plan)))
    [ ("mysql", "b097f791166bc105c3ac901e6d70b6da"); ("python", "ab14c48d40f7eb900dd460e2265d911d") ]

let test_result_entries () =
  let ctx = Runner.create_ctx ~events () in
  let a = app "mysql" in
  List.iter
    (fun (tech_name, expected) ->
      let tech = Option.get (Runner.technique_of_name tech_name) in
      let key =
        Runner.run_key ctx a tech ~train_inputs:[ 0 ] ~test_input:1
          ~kb:(Runner.baseline_kb ctx)
      in
      let r = Runner.run ctx a tech in
      check ("result " ^ tech_name) expected (md5b (Result_cache.encode ~key r)))
    [
      ("tage-scl", "38e0b869d8fa7aaf79062f6db67307f5");
      ("ideal", "1a179d1d8703e5e5bd710abe675d106c");
      ("mtage-sc", "ebabab6360650df1030d2389cdfc179b");
      ("8b-rombf", "7e696b8d29ca1e8ce34aae141bb9252a");
      ("whisper", "aa77d91fd5f13efbf0759b30276ce267");
    ]

(* MTAGE-SC at the size perfbench replays it: mysql's 200 k-event test
   arena (input 1), where every unlimited table holds far more
   substreams than the 20 k pin above makes it hold. *)
let test_mtage_entry () =
  let ctx = Runner.create_ctx ~events:200_000 () in
  let a = app "mysql" in
  let key =
    Runner.run_key ctx a Runner.Mtage_sc ~train_inputs:[ 0 ] ~test_input:1
      ~kb:(Runner.baseline_kb ctx)
  in
  let r = Runner.run ctx a Runner.Mtage_sc in
  check "result mtage-sc 200 k" "bab0a9614ab60f90c5e456921c1780cb"
    (md5b (Result_cache.encode ~key r))

(* TAGE-SC-L and Whisper past the 64 KB geometry's usefulness aging:
   mysql at 300 k events (test input 1) trains the baseline on more than
   2^18 uncovered events, so [u_reset_period] fires in both rows, which
   the 20 k pins above never reach. *)
let test_aging_entries () =
  let ctx = Runner.create_ctx ~events:300_000 () in
  let a = app "mysql" in
  List.iter
    (fun (tech_name, expected) ->
      let tech = Option.get (Runner.technique_of_name tech_name) in
      let key =
        Runner.run_key ctx a tech ~train_inputs:[ 0 ] ~test_input:1
          ~kb:(Runner.baseline_kb ctx)
      in
      let r = Runner.run ctx a tech in
      check ("result " ^ tech_name ^ " 300 k") expected
        (md5b (Result_cache.encode ~key r)))
    [
      ("tage-scl", "ee81674a858b5e5f9f102c8fa9c831b9");
      ("whisper", "b7275cbf878724d7ca65b7cb3290d5a3");
    ]

(* The trained rows' training is pinned on python at 60 k events: on
   mysql at 20 k events BranchNet deploys no model and 8b-ROMBF no hint
   (its profile has 5 candidates), so the mysql 8b-rombf pin above is
   the TAGE-SC-L baseline under another key.  Here the 8 KB BranchNet
   walk fills its budget (17 of 20 accepted models) while the 32 KB and
   unlimited walks do not, and 4b- and 8b-ROMBF deploy hints.  Each
   case also asserts that its row deploys at least one model or hint,
   so a pin cannot silently degrade into a baseline pin. *)
let trained_events = 60_000

let trained_entry ctx a tech ~deployed expected =
  let name = Runner.technique_name tech in
  let key =
    Runner.run_key ctx a tech ~train_inputs:[ 0 ] ~test_input:1
      ~kb:(Runner.baseline_kb ctx)
  in
  if deployed <= 0 then Alcotest.failf "%s deploys nothing" name;
  let r = Runner.run ctx a tech in
  check ("result " ^ name) expected (md5b (Result_cache.encode ~key r))

let test_branchnet_entries () =
  let ctx = Runner.create_ctx ~events:trained_events () in
  let a = app "python" in
  let profile = Runner.profile ctx a in
  List.iter
    (fun (budget, expected) ->
      trained_entry ctx a (Runner.Branchnet budget)
        ~deployed:
          (Whisper_branchnet.Branchnet.model_count
             (Whisper_branchnet.Branchnet.train ~budget profile))
        expected)
    Whisper_branchnet.Branchnet.
      [
        (Budget 8192, "56f5973b2d3b1760111f4950da75a38d");
        (Budget 32768, "ac1119db1a3139522efc36e34e2eced4");
        (Unlimited, "c39fc7efc47af6940e875f07c3eb4df2");
      ]

let test_rombf_entries () =
  let ctx = Runner.create_ctx ~events:trained_events () in
  let a = app "python" in
  let profile = Runner.profile ctx a in
  List.iter
    (fun (n, expected) ->
      trained_entry ctx a (Runner.Rombf n)
        ~deployed:
          (Whisper_rombf.Rombf.hint_count (Whisper_rombf.Rombf.train ~n profile))
        expected)
    [ (4, "d1a02a1e45fa87fda823553222ed3a8a"); (8, "e74295626a11da3781ba626db6943e21") ]

let test_profiles () =
  let ctx = Runner.create_ctx ~events () in
  let arena = Runner.arena ctx (app "python") ~input:0 in
  List.iter
    (fun (kb, expected) ->
      check
        (Printf.sprintf "profile %d KB" kb)
        expected
        (md5b (Profile_io.to_bytes (Runner.profile_arena ~kb arena))))
    [
      (8, "9f658e73fdc3640cb8710371cef65ac2");
      (64, "bb6f85d21ed28f02fc2b16bfd88ebc5b");
      (1024, "d16aaa47af23d4c9d860eaf0b3716e79");
    ]

let test_arena_entry () =
  let ctx = Runner.create_ctx ~events () in
  let arena = Runner.arena ctx (app "python") ~input:1 in
  check "arena entry" "5b13d235868641bbbc8070f176c6bcd8"
    (md5b (Arena_cache.encode ~key:"golden/python/1" arena))

(* Generated traces themselves, at the sizes the benchmark and serve
   build them: perfbench's 200 k-event arenas (inputs 0 and 1 of the
   four apps it runs), a 120 k-event serve chunk after the drift flip
   (phase 1, the input of generation 6), the SPEC mixes, two sampled
   fleet apps, and one model continued across two builds and then
   its source, whose walk and history carry across calls. *)
let gen_arena ?(phase = 0) ~events config ~input =
  let cfg = Workloads.build_cfg config in
  Arena.build ~events (App_model.create ~phase ~cfg ~config ~input ())

let test_arena_digests () =
  List.iter
    (fun (name, events, input, expected) ->
      check
        (Printf.sprintf "arena %s/%d/%d" name input events)
        expected
        (Arena.digest (gen_arena ~events (app name) ~input)))
    [
      ("finagle-http", 200_000, 0, "ae90ebf0859f71dd616e46a94a043cb0");
      ("finagle-http", 200_000, 1, "848fabf7c5373adcb668ee864b2e25da");
      ("python", 200_000, 0, "d418501b03d70606628c1658ac1ab06f");
      ("python", 200_000, 1, "bf76ba8dd4b6dfa70b8e16567680f913");
      ("cassandra", 200_000, 0, "f40a1aaa246a3cfd50b19737e29932c8");
      ("cassandra", 200_000, 1, "947bd7ad41c561b6f3fe7718d1f0b657");
      ("mysql", 200_000, 0, "e1f2b12d1cd3656f8f606c84e9916391");
      ("mysql", 200_000, 1, "26cb4bd7acad3333ec8628e53b437d6d");
      ("gcc", 20_000, 0, "05b954771f316f411c26d8f92055a9df");
      ("mcf", 20_000, 0, "38d1f733de502ecf59f75cd22ba23e07");
    ];
  check "arena finagle-http phase 1" "5a3e434a9463d0119112977b5722db21"
    (Arena.digest
       (gen_arena ~phase:1 ~events:120_000 (app "finagle-http") ~input:8));
  List.iter
    (fun (index, input, expected) ->
      let config = Workloads.sample ~seed:7 ~index in
      check
        (Printf.sprintf "arena %s/%d" config.Workloads.name input)
        expected
        (Arena.digest (gen_arena ~events:20_000 config ~input)))
    [
      (0, 0, "42d68c4a82fb970522752d46b18d22af");
      (5, 1, "3f7a98dcb2f3634b9cd14f5670ec239c");
    ];
  let config = app "python" in
  let m =
    App_model.create ~cfg:(Workloads.build_cfg config) ~config ~input:1 ()
  in
  let a = Arena.build ~events:7_777 m in
  let b = Arena.build ~events:12_345 m in
  let next = App_model.source m in
  let tail =
    List.init 100 (fun _ ->
        let e = next () in
        Printf.sprintf "%d/%d/%b/%d/%d" e.Branch.block e.pc e.taken e.instrs
          e.next_addr)
  in
  check "continued model" "8d40e767bbb076244169fe562b6d1eda"
    (md5 (String.concat "\n" (Arena.digest a :: Arena.digest b :: tail)))

let test_arena_profiles () =
  List.iter
    (fun (what, arena, pins) ->
      List.iter
        (fun (kb, expected) ->
          check
            (Printf.sprintf "profile %s %d KB" what kb)
            expected
            (md5b (Profile_io.to_bytes (Runner.profile_arena ~kb arena))))
        pins)
    [
      ( "cassandra/0",
        gen_arena ~events:200_000 (app "cassandra") ~input:0,
        [
          (8, "09fdaefbe4113427868df66b690ba7d1");
          (64, "90054ddf36dd0049fa07bc8cf3c3f887");
        ] );
      ( "finagle-http phase 1",
        gen_arena ~phase:1 ~events:120_000 (app "finagle-http") ~input:8,
        [
          (8, "9c6fcfff6f2b664a0f957e53383d59de");
          (64, "bbab5abd13d9e16e0e04e1c622c19fc1");
        ] );
    ]

(* The sweep and serve configurations of test_sweep.ml and
   test_serve.ml. *)
let sweep_cfg ~state_dir =
  {
    (Sweep.default ~state_dir) with
    Sweep.apps = Sweep.fleet ~seed:7 ~n:4;
    techniques = [ "tage-scl"; "ideal"; "whisper" ];
    events = 2_000;
    mode = `In_process;
    jobs = 1;
  }

let serve_cfg ~state_dir =
  {
    (Serve.default ~state_dir) with
    Serve.generations = 8;
    chunk_events = 60_000;
    drift_flip = Some 4;
  }

let test_manifest_ids () =
  check "sweep manifest id" "9e82b22f4075e681ff51820ce9a18559"
    (Manifest.id (Sweep.plan (sweep_cfg ~state_dir:"unused")));
  check "serve manifest id" "fded42de95ff90830f95de886beff628"
    (Manifest.id (Serve.plan (serve_cfg ~state_dir:"unused")))

(* ------------------------------------------------------------------ *)
(* End-to-end state directories                                       *)
(* ------------------------------------------------------------------ *)

let file_digest path = md5b (Binio.of_file path)

let test_sweep_outputs () =
  let state_dir = Test_dirs.fresh "golden_sweep" in
  let o = Sweep.run (sweep_cfg ~state_dir) in
  let report = Option.get o.Sweep.report in
  check "sweep report" "38ad10400d82a7fe4a32ef006d8ef8b8"
    (md5 (Report.to_string report ^ "\n---\n" ^ Report.to_csv report));
  check "sweep journal" "a43ebd02e768a203f361f048980dfcf4"
    (file_digest (Filename.concat state_dir "journal.bin"))

let test_serve_outputs () =
  let state_dir = Test_dirs.fresh "golden_serve" in
  let o = Serve.run (serve_cfg ~state_dir) in
  check "serve ledger" "0b057cafec408e78fb5d8fad7ccc7e70" (md5 (String.concat "\n" o.Serve.ledger));
  check "serve journal" "2d8812c48575be6215439c6f380b3b9c"
    (file_digest (Filename.concat state_dir "journal.bin"));
  let plan_dir =
    Filename.concat (Filename.concat state_dir "plans") "finagle-http"
  in
  let plans =
    Sys.readdir plan_dir |> Array.to_list |> List.sort compare
    |> List.map (fun f -> f ^ ":" ^ file_digest (Filename.concat plan_dir f))
  in
  check "serve plan files" "2c10a07da0b6ffbb17e958c310a87682" (md5 (String.concat "\n" plans))

let () =
  Alcotest.run "whisper_golden"
    [
      ( "golden",
        [
          Alcotest.test_case "whisper plans" `Quick test_plans;
          Alcotest.test_case "result-cache entries" `Quick test_result_entries;
          Alcotest.test_case "mtage-sc result-cache entry at 200 k" `Quick
            test_mtage_entry;
          Alcotest.test_case "tage-scl and whisper entries at 300 k" `Quick
            test_aging_entries;
          Alcotest.test_case "branchnet result-cache entries" `Quick
            test_branchnet_entries;
          Alcotest.test_case "rombf result-cache entries" `Quick
            test_rombf_entries;
          Alcotest.test_case "lbr profiles" `Quick test_profiles;
          Alcotest.test_case "arena-cache entry" `Quick test_arena_entry;
          Alcotest.test_case "generated arenas" `Quick test_arena_digests;
          Alcotest.test_case "profiles of generated arenas" `Quick
            test_arena_profiles;
          Alcotest.test_case "manifest ids" `Quick test_manifest_ids;
          Alcotest.test_case "sweep report and journal" `Quick
            test_sweep_outputs;
          Alcotest.test_case "serve ledger, journal and plans" `Slow
            test_serve_outputs;
        ] );
    ]

(* Crash-safe sharded sweep orchestration.

   What must hold:
   - manifests are content-keyed (same config = same id, any change =
     a different id) and round-trip bit-exactly;
   - the completion journal survives torn tails: recovery returns the
     decodable prefix, truncates the garbage, and stays appendable;
   - the supervisor/worker wire protocol round-trips through the
     length-prefixed framing, including partial reads;
   - a sweep killed after an arbitrary number of journaled completions
     and resumed — possibly several times, at a different job count —
     produces a byte-identical fleet report to an uninterrupted run;
   - chaos mode's worker-killing faults end in the same deterministic
     quarantine set in process and in-process execution, and process
     mode degrades gracefully to in-process when workers cannot spawn.

   Process-mode cases need the CLI binary (`whisper worker`); they skip
   cleanly when it is not around (WHISPER_CLI_EXE overrides the default
   ../bin/whisper_cli.exe of a dune test run). *)

open Whisper_util

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d = Filename.concat "_test_sweep" (Printf.sprintf "case%02d" !n) in
    rm_rf d;
    d

(* ------------------------------------------------------------------ *)
(* Manifest                                                           *)
(* ------------------------------------------------------------------ *)

let mk_manifest () =
  Manifest.make
    ~meta:[ ("events", "2000"); ("kb", "64") ]
    [|
      { Manifest.key = "app-a/whisper/0/1/64/2000"; spec = "spec-a" };
      { Manifest.key = "app-b/ideal/0/1/64/2000"; spec = "" };
    |]

let test_manifest_roundtrip () =
  let m = mk_manifest () in
  (match Manifest.decode (Manifest.encode m) with
  | Ok m' ->
      check_bool "round trip" true (m = m');
      check_string "same id" (Manifest.id m) (Manifest.id m')
  | Error e -> Alcotest.failf "decode failed: %s" (Whisper_error.to_string e));
  (* any content change re-keys the manifest *)
  let meta' = Manifest.make ~meta:[ ("events", "2001"); ("kb", "64") ] m.items in
  check_bool "meta change changes id" true (Manifest.id meta' <> Manifest.id m);
  let items' =
    Manifest.make ~meta:m.meta
      [| m.items.(0); { (m.items.(1)) with Manifest.spec = "x" } |]
  in
  check_bool "item change changes id" true (Manifest.id items' <> Manifest.id m);
  (* save/load through the atomic store *)
  let dir = fresh_dir () in
  let path = Filename.concat dir "manifest.bin" in
  Manifest.save m ~path;
  (match Manifest.load ~path with
  | Ok m' -> check_string "load id" (Manifest.id m) (Manifest.id m')
  | Error e -> Alcotest.failf "load failed: %s" (Whisper_error.to_string e));
  match Manifest.load ~path:(Filename.concat dir "nope.bin") with
  | Ok _ -> Alcotest.fail "loaded a missing manifest"
  | Error e ->
      check_bool "typed missing-file error" true
        (e.Whisper_error.stage = Whisper_error.Manifest)

(* ------------------------------------------------------------------ *)
(* Journal                                                            *)
(* ------------------------------------------------------------------ *)

let e1 = { Journal.key = "k1"; status = Journal.Done; detail = "d1" }
let e2 = { Journal.key = "k2"; status = Journal.Quarantined; detail = "why" }
let e3 = { Journal.key = "k3"; status = Journal.Done; detail = "d3" }

let test_journal_recovery () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "journal.bin" in
  let j = Journal.create ~path ~manifest_id:"mid-1" in
  Journal.append j e1;
  Journal.append j e2;
  Journal.close j;
  (* clean recovery preserves entries and order *)
  (match Journal.open_existing ~path ~manifest_id:"mid-1" with
  | Error e -> Alcotest.failf "recovery failed: %s" (Whisper_error.to_string e)
  | Ok (j2, r) ->
      check_bool "clean tail" false r.Journal.corrupt_tail;
      check_int "dropped" 0 r.Journal.dropped_bytes;
      check_bool "entries" true (r.Journal.entries = [ e1; e2 ]);
      (* recovered journals stay appendable *)
      Journal.append j2 e3;
      Journal.close j2);
  (* a torn tail (kill -9 mid-append) is truncated away *)
  let size_before = (Unix.stat path).Unix.st_size in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\xa7\x09half-a-rec";
  close_out oc;
  (match Journal.open_existing ~path ~manifest_id:"mid-1" with
  | Error e -> Alcotest.failf "torn recovery failed: %s" (Whisper_error.to_string e)
  | Ok (j3, r) ->
      check_bool "torn tail flagged" true r.Journal.corrupt_tail;
      check_bool "garbage dropped" true (r.Journal.dropped_bytes > 0);
      check_bool "prefix preserved" true (r.Journal.entries = [ e1; e2; e3 ]);
      Journal.close j3;
      check_int "file truncated back" size_before (Unix.stat path).Unix.st_size);
  (* after truncation the file is clean again *)
  (match Journal.open_existing ~path ~manifest_id:"mid-1" with
  | Ok (j4, r) ->
      check_bool "second recovery clean" false r.Journal.corrupt_tail;
      Journal.close j4
  | Error e -> Alcotest.failf "reopen failed: %s" (Whisper_error.to_string e));
  (* a journal never replays against a different manifest *)
  match Journal.open_existing ~path ~manifest_id:"other" with
  | Ok _ -> Alcotest.fail "accepted a foreign journal"
  | Error e ->
      check_bool "key mismatch" true
        (e.Whisper_error.kind = Whisper_error.Key_mismatch)

(* ------------------------------------------------------------------ *)
(* IPC framing and codecs                                             *)
(* ------------------------------------------------------------------ *)

let sample_init =
  {
    Ipc.events = 2000;
    baseline_kb = 64;
    cache_dir = "/tmp/cache";
    replay = "arena";
    faults = 0.25;
    fault_seed = 7;
    heartbeat_s = 0.25;
    hang_timeout_s = 5.0;
  }

let test_ipc_roundtrip () =
  let to_worker =
    [
      Ipc.Init sample_init;
      Ipc.Item { seq = 3; attempt = 2; key = "some/key"; spec = "blob\x00\xff" };
      Ipc.Shutdown;
    ]
  in
  List.iter
    (fun m ->
      match Ipc.decode_to_worker (Ipc.encode_to_worker m) with
      | Ok m' -> check_bool "to_worker round trip" true (m = m')
      | Error e -> Alcotest.failf "to_worker: %s" (Whisper_error.to_string e))
    to_worker;
  let from_worker =
    [
      Ipc.Hello { pid = 4242 };
      Ipc.Heartbeat { seq = 17 };
      Ipc.Finished
        { seq = 17; key = "k"; outcome = Ipc.Completed { digest = "abcd" } };
      Ipc.Finished
        { seq = 18; key = "k2"; outcome = Ipc.Failed { reason = "injected" } };
    ]
  in
  List.iter
    (fun m ->
      match Ipc.decode_from_worker (Ipc.encode_from_worker m) with
      | Ok m' -> check_bool "from_worker round trip" true (m = m')
      | Error e -> Alcotest.failf "from_worker: %s" (Whisper_error.to_string e))
    from_worker

let test_ipc_partial_frames () =
  (* the supervisor-side reader must absorb arbitrary read boundaries *)
  let r_fd, w_fd = Unix.pipe () in
  let rd = Ipc.reader r_fd in
  let payload = Ipc.encode_from_worker (Ipc.Heartbeat { seq = 9 }) in
  let frame = Bytes.create (4 + Bytes.length payload) in
  Bytes.set_int32_be frame 0 (Int32.of_int (Bytes.length payload));
  Bytes.blit payload 0 frame 4 (Bytes.length payload);
  (* drip the frame in one-byte writes; a frame pops only when whole *)
  let popped = ref None in
  Bytes.iter
    (fun c ->
      assert (Unix.write w_fd (Bytes.make 1 c) 0 1 = 1);
      (match Ipc.feed rd with `Data -> () | `Eof -> Alcotest.fail "early eof");
      match Ipc.next_frame rd with
      | Some b -> popped := Some b
      | None -> ())
    frame;
  (match !popped with
  | Some b ->
      check_bool "reassembled frame decodes" true
        (Ipc.decode_from_worker b = Ok (Ipc.Heartbeat { seq = 9 }))
  | None -> Alcotest.fail "frame never completed");
  Unix.close w_fd;
  check_bool "eof after close" true (Ipc.feed rd = `Eof);
  Unix.close r_fd

(* ------------------------------------------------------------------ *)
(* Sweep runs: completion, resume determinism, chaos parity           *)
(* ------------------------------------------------------------------ *)

let base_cfg ~state_dir =
  {
    (Whisper_sim.Sweep.default ~state_dir) with
    Whisper_sim.Sweep.apps = Whisper_sim.Sweep.fleet ~seed:7 ~n:4;
    techniques = [ "tage-scl"; "ideal"; "whisper" ];
    events = 2_000;
    mode = `In_process;
    jobs = 1;
  }

let report_bytes (o : Whisper_sim.Sweep.outcome) =
  match o.Whisper_sim.Sweep.report with
  | None -> Alcotest.fail "expected a report"
  | Some r ->
      Whisper_sim.Report.to_string r ^ "\n---\n" ^ Whisper_sim.Report.to_csv r

let test_inprocess_complete_and_trivial_resume () =
  let dir = fresh_dir () in
  let cfg = base_cfg ~state_dir:dir in
  let o = Whisper_sim.Sweep.run cfg in
  check_int "total" 12 o.Whisper_sim.Sweep.total;
  check_int "completed" 12 o.completed;
  check_int "quarantined" 0 o.quarantined;
  check_bool "report" true (o.report <> None);
  (* resuming a finished sweep verifies every journal entry and
     recomputes nothing *)
  let o2 =
    Whisper_sim.Sweep.run { cfg with Whisper_sim.Sweep.resume = true }
  in
  check_int "all resumed" 12 o2.resumed;
  check_int "nothing recomputed" 0 o2.completed;
  check_bool "journal recovered" true o2.journal_recovered;
  check_string "byte-identical report" (report_bytes o) (report_bytes o2)

(* Kill after k journaled completions (the in-process stand-in for
   kill -9: the journal is flushed per item, so stopping after the k-th
   append leaves exactly the disk state a real kill would), resume at a
   different job count, and demand the clean run's exact report. *)
let test_resume_determinism_after_random_kills () =
  let chaos cfg =
    { cfg with Whisper_sim.Sweep.faults = 0.35; fault_seed = 9 }
  in
  let clean_dir = fresh_dir () in
  let clean = Whisper_sim.Sweep.run (chaos (base_cfg ~state_dir:clean_dir)) in
  let reference = report_bytes clean in
  check_bool "chaos run quarantines something" true (clean.quarantined > 0);
  (* kill points must lie strictly inside the completable range, which
     chaos shrinks below the item count *)
  let completable = clean.completed in
  check_bool "chaos run still completes several items" true (completable >= 3);
  let kill_points =
    List.sort_uniq compare
      [ 1; 2; completable / 2; completable - 1 ]
    |> List.filter (fun k -> k >= 1 && k < completable)
  in
  List.iter
    (fun k ->
      let dir = fresh_dir () in
      let cfg = chaos (base_cfg ~state_dir:dir) in
      let killed =
        Whisper_sim.Sweep.run
          { cfg with Whisper_sim.Sweep.max_completions = Some k }
      in
      check_bool "killed run stopped early" true killed.interrupted;
      check_bool "killed run has no report" true (killed.report = None);
      check_int "killed at k completions" k killed.completed;
      let resumed =
        Whisper_sim.Sweep.run
          { cfg with Whisper_sim.Sweep.resume = true; jobs = 4 }
      in
      check_bool "resumed skips the journal prefix" true (resumed.resumed >= k);
      check_string
        (Printf.sprintf "resumed report identical (k=%d)" k)
        reference (report_bytes resumed))
    kill_points

let test_resume_chain_three_kills () =
  (* killed at three successive points, then allowed to finish: still
     the clean report, and later kills resume earlier journals *)
  let chaos cfg =
    { cfg with Whisper_sim.Sweep.faults = 0.35; fault_seed = 9 }
  in
  let clean_dir = fresh_dir () in
  let clean = Whisper_sim.Sweep.run (chaos (base_cfg ~state_dir:clean_dir)) in
  let reference = report_bytes clean in
  (* three kills of [step] completions each must not exhaust the
     completable set, or a later "kill" would just finish the sweep *)
  let step = max 1 ((clean.Whisper_sim.Sweep.completed - 1) / 3) in
  check_bool "enough completable items for three kills" true
    (3 * step < clean.completed);
  let dir = fresh_dir () in
  let cfg = chaos (base_cfg ~state_dir:dir) in
  let at k resume =
    Whisper_sim.Sweep.run
      {
        cfg with
        Whisper_sim.Sweep.resume;
        max_completions = (if k = 0 then None else Some k);
      }
  in
  let o1 = at step false in
  check_bool "kill 1" true o1.Whisper_sim.Sweep.interrupted;
  let o2 = at step true in
  check_bool "kill 2" true o2.Whisper_sim.Sweep.interrupted;
  check_bool "kill 2 resumed prior work" true (o2.resumed >= step);
  let o3 = at step true in
  check_bool "kill 3" true o3.Whisper_sim.Sweep.interrupted;
  let final = at 0 true in
  check_bool "final run finishes" false final.Whisper_sim.Sweep.interrupted;
  check_string "report identical after three kills" reference
    (report_bytes final)

let test_manifest_change_invalidates_journal () =
  let dir = fresh_dir () in
  let cfg = base_cfg ~state_dir:dir in
  let _ = Whisper_sim.Sweep.run cfg in
  (* same state dir, different fleet: the journal must not be trusted *)
  let cfg2 =
    {
      cfg with
      Whisper_sim.Sweep.apps = Whisper_sim.Sweep.fleet ~seed:8 ~n:4;
      resume = true;
    }
  in
  let o = Whisper_sim.Sweep.run cfg2 in
  check_int "nothing resumed across manifests" 0 o.Whisper_sim.Sweep.resumed;
  check_int "everything re-ran" 12 o.completed

(* ------------------------------------------------------------------ *)
(* Process mode (needs the CLI binary; skips when absent)             *)
(* ------------------------------------------------------------------ *)

let with_cli = Cli_exe.with_cli ~suite:"test_sweep"

let test_process_mode_matches_inprocess () =
  with_cli @@ fun exe ->
  let chaos cfg =
    {
      cfg with
      Whisper_sim.Sweep.faults = 0.35;
      fault_seed = 9;
      hang_timeout_s = 1.0;
    }
  in
  let ref_dir = fresh_dir () in
  let reference =
    report_bytes (Whisper_sim.Sweep.run (chaos (base_cfg ~state_dir:ref_dir)))
  in
  let dir = fresh_dir () in
  let cfg =
    {
      (chaos (base_cfg ~state_dir:dir)) with
      Whisper_sim.Sweep.mode = `Process;
      jobs = 2;
      worker_argv = [| exe; "worker" |];
    }
  in
  let o = Whisper_sim.Sweep.run cfg in
  check_bool "workers actually died under chaos" true
    (o.Whisper_sim.Sweep.worker_crashes + o.worker_hangs > 0);
  check_string "process report == in-process report" reference
    (report_bytes o)

let test_spawn_failure_falls_back () =
  let dir = fresh_dir () in
  let in_dir = fresh_dir () in
  let reference =
    report_bytes (Whisper_sim.Sweep.run (base_cfg ~state_dir:in_dir))
  in
  let cfg =
    {
      (base_cfg ~state_dir:dir) with
      Whisper_sim.Sweep.mode = `Process;
      worker_argv = [| "/nonexistent/whisper-worker"; "worker" |];
      max_worker_restarts = 1;
    }
  in
  let o = Whisper_sim.Sweep.run cfg in
  check_bool "fell back to in-process" true o.Whisper_sim.Sweep.fellback;
  check_int "still completed everything" 12 o.completed;
  check_string "fallback report identical" reference (report_bytes o)

let () =
  Alcotest.run "whisper_sweep"
    [
      ( "sweep",
        Alcotest.
          [
            test_case "manifest round trip + content id" `Quick
              test_manifest_roundtrip;
            test_case "journal torn-tail recovery" `Quick
              test_journal_recovery;
            test_case "ipc codec round trip" `Quick test_ipc_roundtrip;
            test_case "ipc partial-frame reassembly" `Quick
              test_ipc_partial_frames;
            test_case "in-process sweep completes; trivial resume" `Quick
              test_inprocess_complete_and_trivial_resume;
            test_case "kill after k completions, resume byte-identical"
              `Quick test_resume_determinism_after_random_kills;
            test_case "three kills then finish, report identical" `Quick
              test_resume_chain_three_kills;
            test_case "manifest change invalidates journal" `Quick
              test_manifest_change_invalidates_journal;
            test_case "process mode report == in-process report" `Quick
              test_process_mode_matches_inprocess;
            test_case "spawn failure degrades to in-process" `Quick
              test_spawn_failure_falls_back;
          ] );
    ]

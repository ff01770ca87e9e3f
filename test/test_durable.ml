(* The durable-state file primitives (Whisper_util.Durable).

   What must hold:
   - write_atomic creates missing parent directories, and read returns
     exactly what was written (None for a missing file);
   - concurrent writers of one path never interleave: after four
     domains race write_atomic on the same file, it holds one complete
     input and no temp file is left behind;
   - the CLI's output files go through the same primitive, so an output
     path whose parent directory is missing is created, not a crash
     after the work is done.

   The manifest, journal and cache suites exercise the layers built on
   these primitives.  Dirs go through Test_dirs. *)

open Whisper_util

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let tmp_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tmp")

let test_missing_parent () =
  let root = Test_dirs.fresh "durable_parent" in
  let dir = Filename.concat (Filename.concat root "a") "b" in
  let path = Filename.concat dir "entry.bin" in
  check_bool "missing file reads as None" true (Durable.read path = None);
  Durable.write_atomic path (Bytes.of_string "first");
  Durable.write_atomic path (Bytes.of_string "second");
  check_bool "read returns the last write" true
    (Durable.read path = Some (Bytes.of_string "second"));
  check_int "no temp file left" 0 (List.length (tmp_files dir))

let test_concurrent_writers () =
  let dir = Test_dirs.fresh "durable_race" in
  let path = Filename.concat dir "shared.bin" in
  (* large enough that one write takes several syscalls *)
  let payload d = Bytes.make (256 * 1024) (Char.chr (Char.code 'a' + d)) in
  let inputs = List.init 4 payload in
  let writers =
    List.map
      (fun input ->
        Domain.spawn (fun () ->
            for _ = 1 to 25 do
              Durable.write_atomic path input
            done))
      inputs
  in
  List.iter Domain.join writers;
  (match Durable.read path with
  | None -> Alcotest.fail "no file after the race"
  | Some b ->
      check_bool "the file is one complete input" true (List.mem b inputs));
  check_int "no temp file left" 0 (List.length (tmp_files dir))

let test_cli_outputs_under_missing_parent () =
  Cli_exe.with_cli ~suite:"test_durable" @@ fun exe ->
  let root = Test_dirs.fresh "durable_cli" in
  let csv_dir = Filename.concat (Filename.concat root "out") "nested" in
  let metrics = Filename.concat (Filename.concat root "nope") "m.json" in
  let code =
    Sys.command
      (Filename.quote_command exe
         [
           "experiment"; "table1"; "-n"; "20000"; "--no-cache"; "--csv-dir";
           csv_dir; "--metrics-out"; metrics;
         ]
         ~stdout:Filename.null ~stderr:Filename.null)
  in
  check_int "exit 0" 0 code;
  check_bool "csv written" true
    (Sys.file_exists (Filename.concat csv_dir "table1.csv"));
  check_bool "metrics written" true (Sys.file_exists metrics)

let () =
  Alcotest.run "whisper_durable"
    [
      ( "durable",
        [
          Alcotest.test_case "write_atomic into a missing parent" `Quick
            test_missing_parent;
          Alcotest.test_case "four domains, one path" `Quick
            test_concurrent_writers;
          Alcotest.test_case "CLI outputs under a missing parent" `Quick
            test_cli_outputs_under_missing_parent;
        ] );
    ]

(* Locate the whisper CLI binary for process-level tests: the
   WHISPER_CLI_EXE override, else the dune build tree (the test
   executables run from _build/default/test). *)

let find () =
  let candidates =
    match Sys.getenv_opt "WHISPER_CLI_EXE" with
    | Some p -> [ p ]
    | None ->
        [
          Filename.concat
            (Filename.concat (Filename.dirname (Sys.getcwd ())) "bin")
            "whisper_cli.exe";
          "../bin/whisper_cli.exe";
          "_build/default/bin/whisper_cli.exe";
        ]
  in
  List.find_opt Sys.file_exists candidates

let with_cli ~suite f =
  match find () with
  | None ->
      Printf.printf "%s: CLI binary not found; skipping process-mode case\n%!"
        suite
  | Some exe -> f exe

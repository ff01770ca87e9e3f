let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_atomic path data =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ()) (Domain.self () :> int)
  in
  try
    mkdir_p (Filename.dirname path);
    Binio.to_file tmp data;
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let read path = try Some (Binio.of_file path) with Sys_error _ -> None

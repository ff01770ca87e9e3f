(* Output checks.  Every op reports (key, digest) pairs.  On the seed and
   event count the committed digests were recorded at, each pair must
   match its committed digest; otherwise each pair must equal the first
   pair with the same key seen in this run. *)

let hex s = Digest.to_hex (Digest.string s)

(* Exact rendering of a simulation result: floats in hex, so any change
   to the model shows. *)
let result_digest (r : Whisper_pipeline.Machine.result) =
  let b = Buffer.create 256 in
  Printf.bprintf b "%h %d %d %d %h %h %h %d %d" r.cycles r.instrs r.branches
    r.mispredicts r.misp_stall r.fe_stall r.btb_stall r.l1i_misses
    r.exposed_misses;
  Array.iter (Printf.bprintf b " %d") r.seg_mispredicts;
  Array.iter (Printf.bprintf b " %d") r.seg_instrs;
  hex (Buffer.contents b)

type t = {
  committed : (string, string) Hashtbl.t option;
  seen : (string, string) Hashtbl.t;
}

(* Committed file: one "<workload> <key> <digest>" line each; '#' starts
   a comment line. *)
let load_committed ~path ~workload =
  let tbl = Hashtbl.create 64 in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ w; key; digest ] when w = workload && line.[0] <> '#' ->
             Hashtbl.replace tbl key digest
         | _ -> ());
  tbl

let create ?committed () = { committed; seen = Hashtbl.create 64 }

(* The keys among [outputs] that fail their check. *)
let verify t outputs =
  List.filter_map
    (fun (key, digest) ->
      match t.committed with
      | Some tbl -> (
          match Hashtbl.find_opt tbl key with
          | Some d when d = digest -> None
          | Some _ -> Some key
          | None -> Some (key ^ " (no committed digest)"))
      | None -> (
          match Hashtbl.find_opt t.seen key with
          | Some d when d = digest -> None
          | Some _ -> Some key
          | None ->
              Hashtbl.add t.seen key digest;
              None))
    outputs

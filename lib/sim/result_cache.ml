open Whisper_util
open Whisper_pipeline

module Spec = struct
  type value = Machine.result

  let magic = "WRSC"

  (* v2: Machine's fixed-point cycle accounting changes the rounding of
     every cycle/stall float, so v1 entries must not satisfy lookups
     against the new accounting. *)
  let format_version = 2
  let extension = ".res"
  let stage = Whisper_error.Result_cache
  let counter_prefix = "result_cache"

  let write w (r : Machine.result) =
    Binio.Writer.float64 w r.Machine.cycles;
    Binio.Writer.varint w r.instrs;
    Binio.Writer.varint w r.branches;
    Binio.Writer.varint w r.mispredicts;
    Binio.Writer.float64 w r.misp_stall;
    Binio.Writer.float64 w r.fe_stall;
    Binio.Writer.float64 w r.btb_stall;
    Binio.Writer.varint w r.l1i_misses;
    Binio.Writer.varint w r.exposed_misses;
    let int_array a =
      Binio.Writer.varint w (Array.length a);
      Array.iter (Binio.Writer.varint w) a
    in
    int_array r.seg_mispredicts;
    int_array r.seg_instrs

  let read r =
    let cycles = Binio.Reader.float64 r in
    let instrs = Binio.Reader.varint r in
    let branches = Binio.Reader.varint r in
    let mispredicts = Binio.Reader.varint r in
    let misp_stall = Binio.Reader.float64 r in
    let fe_stall = Binio.Reader.float64 r in
    let btb_stall = Binio.Reader.float64 r in
    let l1i_misses = Binio.Reader.varint r in
    let exposed_misses = Binio.Reader.varint r in
    let int_array () =
      let n = Binio.Reader.count r in
      Array.init n (fun _ -> Binio.Reader.varint r)
    in
    let seg_mispredicts = int_array () in
    let seg_instrs = int_array () in
    {
      Machine.cycles;
      instrs;
      branches;
      mispredicts;
      misp_stall;
      fe_stall;
      btb_stall;
      l1i_misses;
      exposed_misses;
      seg_mispredicts;
      seg_instrs;
    }
end

include Keyed_store.Make (Spec)

let default_dir = "_whisper_cache"
let create ?corrupt ?(dir = default_dir) () = create ?corrupt ~dir ()

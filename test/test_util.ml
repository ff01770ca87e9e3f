(* Tests for whisper_util: PRNG, bit ops, stats, geometric series, LRU,
   histograms, and the history / folded-hash machinery. *)

open Whisper_util

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.next a) (Rng.next b) then incr same
  done;
  Alcotest.(check bool) "different streams" true (!same < 4)

let test_rng_int_bounds () =
  let t = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_invalid () =
  let t = Rng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int") (fun () ->
      ignore (Rng.int t 0))

let test_rng_bits () =
  let t = Rng.create 3 in
  check_int "0 bits" 0 (Rng.bits t 0);
  for _ = 1 to 200 do
    let v = Rng.bits t 8 in
    Alcotest.(check bool) "8 bits" true (v >= 0 && v < 256)
  done

let test_rng_float_bounds () =
  let t = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.float t 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_rng_bernoulli_frequency () =
  let t = Rng.create 5 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bernoulli t 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "freq near 0.3" true (abs_float (freq -. 0.3) < 0.02)

let test_rng_geometric_mean () =
  let t = Rng.create 9 in
  let n = 20_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Rng.geometric t 0.5
  done;
  (* mean of failures-before-success for p=0.5 is 1. *)
  let mean = float_of_int !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1" true (abs_float (mean -. 1.0) < 0.1)

let test_rng_permutation () =
  let t = Rng.create 13 in
  let p = Rng.permutation t 50 in
  let seen = Array.make 50 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Alcotest.(check bool) "bijective" true (Array.for_all Fun.id seen)

let test_rng_shuffle_multiset () =
  let t = Rng.create 17 in
  let arr = Array.init 30 (fun i -> i mod 7) in
  let before = Array.copy arr in
  Rng.shuffle t arr;
  Array.sort compare arr;
  Array.sort compare before;
  Alcotest.(check (array int)) "multiset preserved" before arr

let test_rng_split_independent () =
  let t = Rng.create 21 in
  let child = Rng.split t in
  let a = Rng.next t and b = Rng.next child in
  Alcotest.(check bool) "distinct values" true (not (Int64.equal a b))

let test_rng_sample_weighted () =
  let t = Rng.create 23 in
  for _ = 1 to 500 do
    let v = Rng.sample_weighted t [| (0.0, `A); (1.0, `B); (0.0, `C) |] in
    Alcotest.(check bool) "only positive weight" true (v = `B)
  done

(* the running sums and a binary search pick what the re-summing scan
   picks, draw for draw, zero weights included *)
let test_rng_sample_cumulative () =
  let weights = [| (0.0, 0); (2.0, 1); (0.5, 2); (0.0, 3); (1.5, 4); (0.0, 5) |] in
  let sums = Rng.running_sums (Array.map fst weights) in
  let a = Rng.create 31 and b = Rng.create 31 in
  for _ = 1 to 2_000 do
    Alcotest.(check int) "same pick"
      (Rng.sample_weighted b weights)
      (Rng.sample_cumulative a sums)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.sample_cumulative")
    (fun () -> ignore (Rng.sample_cumulative a [||]));
  Alcotest.check_raises "zero total" (Invalid_argument "Rng.sample_cumulative")
    (fun () -> ignore (Rng.sample_cumulative a [| 0.0; 0.0 |]))

let test_rng_choose () =
  let t = Rng.create 29 in
  let v = Rng.choose t [| 1; 2; 3 |] in
  Alcotest.(check bool) "member" true (List.mem v [ 1; 2; 3 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose") (fun () ->
      ignore (Rng.choose t [||]))

(* ------------------------------------------------------------------ *)
(* Bitops                                                             *)
(* ------------------------------------------------------------------ *)

let test_popcount () =
  check_int "0" 0 (Bitops.popcount 0);
  check_int "0xFF" 8 (Bitops.popcount 0xFF);
  check_int "0b1010" 2 (Bitops.popcount 0b1010)

let test_parity () =
  check_int "even" 0 (Bitops.parity 0b1010);
  check_int "odd" 1 (Bitops.parity 0b1011)

let test_mask () =
  check_int "mask 0" 0 (Bitops.mask 0);
  check_int "mask 8" 255 (Bitops.mask 8);
  check_int "mask 15" 32767 (Bitops.mask 15)

let test_get_set_bit () =
  check_int "get" 1 (Bitops.get_bit 0b100 2);
  check_int "get0" 0 (Bitops.get_bit 0b100 1);
  check_int "set" 0b101 (Bitops.set_bit 0b100 0)

let test_fold_xor () =
  (* 16 bits folded to 8: high byte xor low byte. *)
  check_int "xor fold" (0xAB lxor 0xCD) (Bitops.fold_xor 0xABCD ~width:16 ~chunk:8);
  (* width not a multiple of chunk: remaining high bits form a short chunk. *)
  check_int "ragged" (0b101 lxor 0b1) (Bitops.fold_xor 0b1101 ~width:4 ~chunk:3)

let test_fold_and_or () =
  check_int "and fold" (0xAB land 0xCD) (Bitops.fold_and 0xABCD ~width:16 ~chunk:8);
  check_int "or fold" (0xAB lor 0xCD) (Bitops.fold_or 0xABCD ~width:16 ~chunk:8)

let test_reverse_bits () =
  check_int "rev" 0b0011 (Bitops.reverse_bits 0b1100 ~width:4);
  check_int "rev8" 0b10000000 (Bitops.reverse_bits 1 ~width:8)

let test_log2_ceil () =
  check_int "1" 0 (Bitops.log2_ceil 1);
  check_int "2" 1 (Bitops.log2_ceil 2);
  check_int "3" 2 (Bitops.log2_ceil 3);
  check_int "1024" 10 (Bitops.log2_ceil 1024);
  check_int "1025" 11 (Bitops.log2_ceil 1025)

let test_power_of_two () =
  Alcotest.(check bool) "8" true (Bitops.is_power_of_two 8);
  Alcotest.(check bool) "12" false (Bitops.is_power_of_two 12);
  Alcotest.(check bool) "0" false (Bitops.is_power_of_two 0)

let test_to_bit_list () =
  Alcotest.(check (list int)) "bits" [ 1; 0; 1; 0 ] (Bitops.to_bit_list 0b0101 ~width:4)

let qcheck_reverse_involution =
  QCheck.Test.make ~name:"reverse_bits involution" ~count:500
    QCheck.(int_bound 0xFFFF)
    (fun x -> Bitops.reverse_bits (Bitops.reverse_bits x ~width:16) ~width:16 = x)

let qcheck_popcount_split =
  QCheck.Test.make ~name:"popcount splits over disjoint masks" ~count:500
    QCheck.(pair (int_bound 0xFF) (int_bound 0xFF))
    (fun (a, b) ->
      Bitops.popcount ((a lsl 8) lor b) = Bitops.popcount a + Bitops.popcount b)

let qcheck_fold_xor_parity =
  (* XOR-folding to 1-bit chunks is the parity function. *)
  QCheck.Test.make ~name:"fold_xor chunk=1 is parity" ~count:500
    QCheck.(int_bound 0x3FFFFFF)
    (fun x -> Bitops.fold_xor x ~width:26 ~chunk:1 = Bitops.parity x)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_mean () =
  check_float "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  check_float "empty" 0.0 (Stats.mean [||])

let test_geomean () =
  check_float "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let test_stddev_known () =
  let s = Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check_float "wikipedia example" 2.0 s

let test_stddev_constant () =
  check_float "constant" 0.0 (Stats.stddev [| 5.0; 5.0 |])

let test_min_max () =
  let lo, hi = Stats.min_max [| 3.0; 1.0; 2.0 |] in
  check_float "min" 1.0 lo;
  check_float "max" 3.0 hi

let test_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 4.0 (Stats.percentile xs 100.0);
  check_float "p50" 2.5 (Stats.percentile xs 50.0)

let test_pct () =
  check_float "pct" 25.0 (Stats.pct 1.0 4.0);
  check_float "zero whole" 0.0 (Stats.pct 1.0 0.0)

let test_speedup () =
  check_float "2x" 100.0 (Stats.speedup_pct ~baseline:200.0 ~improved:100.0);
  check_float "none" 0.0 (Stats.speedup_pct ~baseline:100.0 ~improved:100.0)

let test_reduction () =
  check_float "half" 50.0 (Stats.reduction_pct ~baseline:10.0 ~improved:5.0);
  check_float "none" 0.0 (Stats.reduction_pct ~baseline:0.0 ~improved:0.0)

let test_cdf () =
  match Stats.cdf_points [| 3.0; 1.0 |] with
  | [ (1.0, half); (3.0, one) ] ->
      check_float "half" 0.5 half;
      check_float "one" 1.0 one
  | _ -> Alcotest.fail "unexpected shape"

(* ------------------------------------------------------------------ *)
(* Geometric                                                          *)
(* ------------------------------------------------------------------ *)

let test_geometric_default () =
  let s = Geometric.default in
  check_int "16 terms" 16 (Array.length s);
  check_int "first" 8 s.(0);
  check_int "last" 1024 s.(15);
  (* The paper quotes the series as 8, 11, 15, ... *)
  check_int "second" 11 s.(1);
  check_int "third" 15 s.(2)

let test_geometric_monotone () =
  let s = Geometric.default in
  for i = 1 to Array.length s - 1 do
    Alcotest.(check bool) "strictly increasing" true (s.(i) > s.(i - 1))
  done

let test_geometric_invalid () =
  Alcotest.check_raises "m too small"
    (Invalid_argument "Geometric.series") (fun () ->
      ignore (Geometric.series ~a:8 ~n:1024 ~m:1))

let test_geometric_bucket () =
  let s = Geometric.default in
  check_int "bucket of 1" 0 (Geometric.bucket s 1);
  check_int "bucket of 8" 0 (Geometric.bucket s 8);
  check_int "bucket of 9" 1 (Geometric.bucket s 9);
  check_int "bucket beyond" 15 (Geometric.bucket s 100_000)

let test_geometric_index () =
  let s = Geometric.default in
  Alcotest.(check (option int)) "index of 8" (Some 0) (Geometric.index_of_length s 8);
  Alcotest.(check (option int)) "index of 1024" (Some 15)
    (Geometric.index_of_length s 1024);
  Alcotest.(check (option int)) "missing" None (Geometric.index_of_length s 9)

let qcheck_geometric_valid =
  QCheck.Test.make ~name:"geometric series well-formed" ~count:200
    QCheck.(triple (int_range 1 32) (int_range 64 4096) (int_range 2 24))
    (fun (a, n, m) ->
      QCheck.assume (n > a && n - a + 1 >= m);
      let s = Geometric.series ~a ~n ~m in
      Array.length s = m
      && s.(0) = a
      && s.(m - 1) = n
      && Array.for_all (fun x -> x >= a && x <= n) s
      &&
      let mono = ref true in
      for i = 1 to m - 1 do
        if s.(i) <= s.(i - 1) then mono := false
      done;
      !mono)

(* ------------------------------------------------------------------ *)
(* Lru                                                                *)
(* ------------------------------------------------------------------ *)

let test_lru_basic () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l 1 "a");
  ignore (Lru.add l 2 "b");
  Alcotest.(check (option string)) "find 1" (Some "a") (Lru.find l 1);
  check_int "len" 2 (Lru.length l)

let test_lru_eviction_order () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l 1 ());
  ignore (Lru.add l 2 ());
  let evicted = Lru.add l 3 () in
  Alcotest.(check (option int)) "evicts LRU" (Some 1) evicted;
  Alcotest.(check bool) "2 still in" true (Lru.mem l 2)

let test_lru_promotion () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l 1 ());
  ignore (Lru.add l 2 ());
  ignore (Lru.find l 1);
  (* 1 promoted *)
  let evicted = Lru.add l 3 () in
  Alcotest.(check (option int)) "evicts 2" (Some 2) evicted

let test_lru_peek_no_promotion () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l 1 ());
  ignore (Lru.add l 2 ());
  ignore (Lru.peek l 1);
  let evicted = Lru.add l 3 () in
  Alcotest.(check (option int)) "still evicts 1" (Some 1) evicted

let test_lru_update_existing () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l 1 "a");
  ignore (Lru.add l 2 "b");
  let e = Lru.add l 1 "a2" in
  Alcotest.(check (option int)) "no eviction on update" None e;
  Alcotest.(check (option string)) "updated" (Some "a2") (Lru.peek l 1)

let test_lru_remove () =
  let l = Lru.create ~capacity:2 in
  ignore (Lru.add l 1 ());
  Lru.remove l 1;
  check_int "empty" 0 (Lru.length l);
  Alcotest.(check bool) "gone" false (Lru.mem l 1)

let test_lru_clear () =
  let l = Lru.create ~capacity:4 in
  for i = 1 to 4 do
    ignore (Lru.add l i ())
  done;
  Lru.clear l;
  check_int "cleared" 0 (Lru.length l);
  ignore (Lru.add l 9 ());
  check_int "usable after clear" 1 (Lru.length l)

let test_lru_fold_order () =
  let l = Lru.create ~capacity:3 in
  ignore (Lru.add l 1 ());
  ignore (Lru.add l 2 ());
  ignore (Lru.add l 3 ());
  let order = List.rev (Lru.fold (fun acc k () -> k :: acc) [] l) in
  Alcotest.(check (list int)) "MRU first" [ 3; 2; 1 ] order

(* Model-based qcheck test: compare against a naive list-based LRU. *)
module Naive = struct
  type t = { cap : int; mutable items : (int * int) list }

  let create cap = { cap; items = [] }

  let find t k =
    match List.assoc_opt k t.items with
    | None -> None
    | Some v ->
        t.items <- (k, v) :: List.remove_assoc k t.items;
        Some v

  let add t k v =
    if List.mem_assoc k t.items then begin
      t.items <- (k, v) :: List.remove_assoc k t.items;
      None
    end
    else begin
      let evicted =
        if List.length t.items >= t.cap then begin
          let rev = List.rev t.items in
          let ek, _ = List.hd rev in
          t.items <- List.rev (List.tl rev);
          Some ek
        end
        else None
      in
      t.items <- (k, v) :: t.items;
      evicted
    end
end

let qcheck_lru_model =
  QCheck.Test.make ~name:"LRU matches naive model" ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 7)))
    (fun ops ->
      let real = Lru.create ~capacity:4 and model = Naive.create 4 in
      List.for_all
        (fun (op, k) ->
          match op with
          | 0 | 1 -> Lru.add real k k = Naive.add model k k
          | _ -> Lru.find real k = Naive.find model k)
        ops)

(* ------------------------------------------------------------------ *)
(* Histo                                                              *)
(* ------------------------------------------------------------------ *)

let test_histo_counts () =
  let h = Histo.create () in
  Histo.incr h 3;
  Histo.incr h 3;
  Histo.add h 5 10;
  check_int "count 3" 2 (Histo.count h 3);
  check_int "count 5" 10 (Histo.count h 5);
  check_int "absent" 0 (Histo.count h 99);
  check_int "total" 12 (Histo.total h);
  check_int "cardinal" 2 (Histo.cardinal h)

let test_histo_sorted () =
  let h = Histo.create () in
  Histo.add h 2 1;
  Histo.add h 1 5;
  Alcotest.(check (list (pair int int))) "by key" [ (1, 5); (2, 1) ]
    (Histo.to_sorted_list h);
  Alcotest.(check (list (pair int int))) "by count" [ (1, 5); (2, 1) ]
    (Histo.by_count_desc h)

let test_histo_merge () =
  let a = Histo.create () and b = Histo.create () in
  Histo.add a 1 2;
  Histo.add b 1 3;
  Histo.add b 7 1;
  Histo.merge_into ~dst:a ~src:b;
  check_int "merged" 5 (Histo.count a 1);
  check_int "new key" 1 (Histo.count a 7);
  check_int "src untouched" 3 (Histo.count b 1)

let test_histo_copy () =
  let a = Histo.create () in
  Histo.add a 1 1;
  let b = Histo.copy a in
  Histo.incr b 1;
  check_int "copy independent" 1 (Histo.count a 1);
  check_int "copy updated" 2 (Histo.count b 1)

(* ------------------------------------------------------------------ *)
(* History + Folded                                                   *)
(* ------------------------------------------------------------------ *)

let test_history_push_get () =
  let h = History.create ~depth:8 in
  check_int "initial" 0 (History.get h 0);
  History.push h true;
  History.push h false;
  check_int "most recent" 0 (History.get h 0);
  check_int "one ago" 1 (History.get h 1);
  check_int "older reads 0" 0 (History.get h 7)

let test_history_wraparound () =
  let h = History.create ~depth:4 in
  for _ = 1 to 3 do
    History.push h true
  done;
  for _ = 1 to 4 do
    History.push h false
  done;
  for i = 0 to 3 do
    check_int "not taken" 0 (History.get h i)
  done;
  check_int "beyond depth" 0 (History.get h 4)

let test_history_raw_window () =
  let h = History.create ~depth:8 in
  History.push h true;
  History.push h false;
  History.push h true;
  (* newest..oldest = 1,0,1 -> bits 0b101 *)
  check_int "raw" 0b101 (Whisper_oracle.History_ref.raw_window h 3);
  check_int "padded" 0b101 (Whisper_oracle.History_ref.raw_window h 6)

let test_history_hash_window_small () =
  let h = History.create ~depth:16 in
  let outcomes = [ true; false; true; true; false; false; true; false; true; true ] in
  List.iter (History.push h) outcomes;
  let expected = ref 0 in
  for j = 0 to 9 do
    expected := !expected lxor (History.get h j lsl (j mod 8))
  done;
  check_int "matches definition" !expected
    (Whisper_oracle.History_ref.hash_window h ~len:10 ~chunk:8)

let test_folded_matches_scratch () =
  let depth = 256 in
  let h = History.create ~depth in
  let reg = History.Folded.create ~len:37 ~chunk:8 in
  let rng = Rng.create 99 in
  for _ = 1 to 500 do
    let b = Rng.bool rng in
    History.push_all h [| reg |] b;
    let scratch =
      Whisper_oracle.History_ref.hash_window h ~len:37 ~chunk:8
    in
    check_int "incremental = scratch" scratch (History.Folded.value reg)
  done

let qcheck_folded_equivalence =
  QCheck.Test.make ~name:"folded register equals hash_window for all lengths"
    ~count:60
    QCheck.(pair (int_range 1 120) (list_of_size (Gen.return 200) bool))
    (fun (len, bits) ->
      let h = History.create ~depth:256 in
      let reg = History.Folded.create ~len ~chunk:8 in
      List.for_all
        (fun b ->
          History.push_all h [| reg |] b;
          History.Folded.value reg
          = Whisper_oracle.History_ref.hash_window h ~len ~chunk:8)
        bits)

let test_folded_accessors () =
  let reg = History.Folded.create ~len:37 ~chunk:8 in
  check_int "len" 37 (History.Folded.len reg);
  check_int "chunk" 8 (History.Folded.chunk reg);
  check_int "initial" 0 (History.Folded.value reg)

let test_history_invalid () =
  Alcotest.check_raises "bad depth" (Invalid_argument "History.create")
    (fun () -> ignore (History.create ~depth:0));
  let h = History.create ~depth:4 in
  Alcotest.check_raises "bad get" (Invalid_argument "History.get") (fun () ->
      ignore (History.get h (-1)))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "whisper_util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "bits" `Quick test_rng_bits;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "bernoulli frequency" `Quick test_rng_bernoulli_frequency;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "permutation" `Quick test_rng_permutation;
          Alcotest.test_case "shuffle multiset" `Quick test_rng_shuffle_multiset;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "sample weighted" `Quick test_rng_sample_weighted;
          Alcotest.test_case "sample cumulative" `Quick test_rng_sample_cumulative;
          Alcotest.test_case "choose" `Quick test_rng_choose;
        ] );
      ( "bitops",
        Alcotest.
          [
            test_case "popcount" `Quick test_popcount;
            test_case "parity" `Quick test_parity;
            test_case "mask" `Quick test_mask;
            test_case "get/set bit" `Quick test_get_set_bit;
            test_case "fold xor" `Quick test_fold_xor;
            test_case "fold and/or" `Quick test_fold_and_or;
            test_case "reverse bits" `Quick test_reverse_bits;
            test_case "log2 ceil" `Quick test_log2_ceil;
            test_case "power of two" `Quick test_power_of_two;
            test_case "to bit list" `Quick test_to_bit_list;
          ]
        @ qsuite
            [
              qcheck_reverse_involution;
              qcheck_popcount_split;
              qcheck_fold_xor_parity;
            ] );
      ( "stats",
        Alcotest.
          [
            test_case "mean" `Quick test_mean;
            test_case "geomean" `Quick test_geomean;
            test_case "stddev constant" `Quick test_stddev_constant;
            test_case "stddev known" `Quick test_stddev_known;
            test_case "min/max" `Quick test_min_max;
            test_case "percentile" `Quick test_percentile;
            test_case "pct" `Quick test_pct;
            test_case "speedup" `Quick test_speedup;
            test_case "reduction" `Quick test_reduction;
            test_case "cdf" `Quick test_cdf;
          ] );
      ( "geometric",
        Alcotest.
          [
            test_case "paper default series" `Quick test_geometric_default;
            test_case "monotone" `Quick test_geometric_monotone;
            test_case "invalid" `Quick test_geometric_invalid;
            test_case "bucket" `Quick test_geometric_bucket;
            test_case "index" `Quick test_geometric_index;
          ]
        @ qsuite [ qcheck_geometric_valid ] );
      ( "lru",
        Alcotest.
          [
            test_case "basic" `Quick test_lru_basic;
            test_case "eviction order" `Quick test_lru_eviction_order;
            test_case "promotion" `Quick test_lru_promotion;
            test_case "peek no promotion" `Quick test_lru_peek_no_promotion;
            test_case "update existing" `Quick test_lru_update_existing;
            test_case "remove" `Quick test_lru_remove;
            test_case "clear" `Quick test_lru_clear;
            test_case "fold order" `Quick test_lru_fold_order;
          ]
        @ qsuite [ qcheck_lru_model ] );
      ( "histo",
        Alcotest.
          [
            test_case "counts" `Quick test_histo_counts;
            test_case "sorted views" `Quick test_histo_sorted;
            test_case "merge" `Quick test_histo_merge;
            test_case "copy" `Quick test_histo_copy;
          ] );
      ( "history",
        Alcotest.
          [
            test_case "push/get" `Quick test_history_push_get;
            test_case "wraparound" `Quick test_history_wraparound;
            test_case "raw window" `Quick test_history_raw_window;
            test_case "hash window definition" `Quick test_history_hash_window_small;
            test_case "folded matches scratch" `Quick test_folded_matches_scratch;
            test_case "folded accessors" `Quick test_folded_accessors;
            test_case "invalid args" `Quick test_history_invalid;
          ]
        @ qsuite [ qcheck_folded_equivalence ] );
    ]

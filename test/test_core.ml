open X3_core
open X3_pattern
open Fixtures

(* --- aggregates ---------------------------------------------------------- *)

let test_aggregate_values () =
  let cell = Aggregate.create () in
  List.iter (Aggregate.add cell) [ 3.; 1.; 4.; 1.; 5. ];
  Alcotest.(check (float 1e-9)) "count" 5. (Aggregate.value Aggregate.Count cell);
  Alcotest.(check (float 1e-9)) "sum" 14. (Aggregate.value Aggregate.Sum cell);
  Alcotest.(check (float 1e-9)) "avg" 2.8 (Aggregate.value Aggregate.Avg cell);
  Alcotest.(check (float 1e-9)) "min" 1. (Aggregate.value Aggregate.Min cell);
  Alcotest.(check (float 1e-9)) "max" 5. (Aggregate.value Aggregate.Max cell)

let test_aggregate_merge () =
  let a = Aggregate.create () and b = Aggregate.create () in
  List.iter (Aggregate.add a) [ 1.; 2. ];
  List.iter (Aggregate.add b) [ 10. ];
  Aggregate.merge ~into:a b;
  Alcotest.(check (float 1e-9)) "count" 3. (Aggregate.value Aggregate.Count a);
  Alcotest.(check (float 1e-9)) "max" 10. (Aggregate.value Aggregate.Max a)

let test_aggregate_empty () =
  let cell = Aggregate.create () in
  Alcotest.(check (float 1e-9)) "count 0" 0.
    (Aggregate.value Aggregate.Count cell);
  Alcotest.(check bool) "avg nan" true
    (Float.is_nan (Aggregate.value Aggregate.Avg cell))

let prop_merge_associative =
  QCheck2.Test.make ~name:"merge order irrelevant for count/sum" ~count:200
    QCheck2.Gen.(pair (list (float_bound_inclusive 100.)) (list (float_bound_inclusive 100.)))
    (fun (xs, ys) ->
      let one = Aggregate.create () in
      List.iter (Aggregate.add one) (xs @ ys);
      let a = Aggregate.create () and b = Aggregate.create () in
      List.iter (Aggregate.add a) xs;
      List.iter (Aggregate.add b) ys;
      Aggregate.merge ~into:a b;
      Aggregate.equal_value Aggregate.Count one a
      && Aggregate.equal_value Aggregate.Sum one a)

(* --- group keys ---------------------------------------------------------- *)

(* Coded keys name values only through the axis dictionaries: a value
   list goes in through [of_parts] and comes back out through
   [to_parts]. *)
let dicts_of_axes axis_values =
  Array.map
    (fun values ->
      let d = Witness.Dict.create () in
      List.iter (fun v -> ignore (Witness.Dict.intern d v)) values;
      d)
    axis_values

let key_roundtrip parts =
  let dicts = dicts_of_axes (Array.of_list (List.map (fun p -> [ p ]) parts)) in
  let layout = Group_key.layout_of_sizes (Array.map Witness.Dict.size dicts) in
  let cuboid = Array.map (fun _ -> X3_lattice.State.Present 0) dicts in
  match Group_key.of_parts layout ~dicts cuboid parts with
  | None -> None
  | Some key -> Some (Group_key.to_parts layout ~dicts cuboid key)

let test_key_roundtrip () =
  let parts = [ "John"; ""; "20,03"; "x\x00y" ] in
  Alcotest.(check (option (list string))) "roundtrip" (Some parts)
    (key_roundtrip parts)

let test_key_injective () =
  let dicts = dicts_of_axes [| [ "ab"; "a" ]; [ "c"; "bc" ] |] in
  let layout = Group_key.layout_of_sizes (Array.map Witness.Dict.size dicts) in
  let cuboid = [| X3_lattice.State.Present 0; X3_lattice.State.Present 0 |] in
  let key parts = Option.get (Group_key.of_parts layout ~dicts cuboid parts) in
  Alcotest.(check bool) "no separator confusion" false
    (Group_key.equal (key [ "ab"; "c" ]) (key [ "a"; "bc" ]))

let prop_key_roundtrip =
  QCheck2.Test.make ~name:"group key roundtrip" ~count:300
    QCheck2.Gen.(list (string_size ~gen:char (int_bound 40)))
    (fun parts -> key_roundtrip parts = Some parts)

(* --- sort records --------------------------------------------------------- *)

let test_sort_record_roundtrip () =
  let key = "a\000b" in
  let k, f, m = Sort_record.decode (Sort_record.encode ~key ~fact:42 ~measure:2.5) in
  Alcotest.(check string) "key" key k;
  Alcotest.(check int) "fact" 42 f;
  Alcotest.(check (float 0.)) "measure" 2.5 m

let test_sort_record_groups_adjacent () =
  let records =
    [
      Sort_record.encode ~key:"b" ~fact:1 ~measure:1.;
      Sort_record.encode ~key:"a" ~fact:2 ~measure:1.;
      Sort_record.encode ~key:"b" ~fact:0 ~measure:1.;
      Sort_record.encode ~key:"a" ~fact:9 ~measure:1.;
    ]
  in
  let sorted = List.sort Sort_record.compare records in
  let keys = List.map (fun r -> let k, _, _ = Sort_record.decode r in k) sorted in
  Alcotest.(check (list string)) "equal keys adjacent"
    [ "a"; "a"; "b"; "b" ] keys;
  let facts = List.map (fun r -> let _, f, _ = Sort_record.decode r in f) sorted in
  Alcotest.(check (list int)) "facts sorted within key" [ 2; 9; 0; 1 ] facts

(* --- the running example ------------------------------------------------- *)

let prepared () =
  let spec = Engine.count_spec ~fact_path ~axes:(query1_axes ()) in
  Engine.prepare ~pool:(small_pool ()) ~store:(figure1_store ()) spec

let lattice_of p = Engine.lattice p

let count result ~cuboid ~key_parts =
  match
    Cube_result.find result ~cuboid ~key:key_parts
  with
  | Some cell -> int_of_float (Aggregate.value Aggregate.Count cell)
  | None -> 0

(* Locate a cuboid by per-axis states. *)
let cuboid_id p states =
  X3_lattice.Lattice.id (lattice_of p) (Array.of_list states)

let removed = X3_lattice.State.Removed
let present m = X3_lattice.State.Present m

let test_naive_group_by_year () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let by_year = cuboid_id p [ removed; removed; present 0 ] in
  (* pub 3 counts even though it has no publisher (coverage example). *)
  Alcotest.(check int) "2003" 2 (count result ~cuboid:by_year ~key_parts:[ "2003" ]);
  Alcotest.(check int) "2004" 1 (count result ~cuboid:by_year ~key_parts:[ "2004" ]);
  Alcotest.(check int) "2005" 1 (count result ~cuboid:by_year ~key_parts:[ "2005" ])

let test_naive_publisher_year_disjointness () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let c = cuboid_id p [ removed; present 0; present 0 ] in
  (* Group (p1, 2003) counts publication 1 once despite two authors. *)
  Alcotest.(check int) "(p1, 2003)" 1
    (count result ~cuboid:c ~key_parts:[ "p1"; "2003" ]);
  Alcotest.(check int) "(p2, 2004)" 1
    (count result ~cuboid:c ~key_parts:[ "p2"; "2004" ]);
  Alcotest.(check int) "(p2, 2005)" 1
    (count result ~cuboid:c ~key_parts:[ "p2"; "2005" ])

let test_naive_all_group () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let top = X3_lattice.Lattice.most_relaxed_id (lattice_of p) in
  Alcotest.(check int) "all four pubs" 4
    (count result ~cuboid:top ~key_parts:[])

let test_naive_author_relaxation_widens () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let rigid_n = cuboid_id p [ present 0; removed; removed ] in
  let pc_n = cuboid_id p [ present 1; removed; removed ] in
  (* Rigid: Bob's nested author is missed; PC-AD finds it. *)
  Alcotest.(check int) "rigid misses Bob" 0
    (count result ~cuboid:rigid_n ~key_parts:[ "Bob" ]);
  Alcotest.(check int) "pc-ad finds Bob" 1
    (count result ~cuboid:pc_n ~key_parts:[ "Bob" ]);
  Alcotest.(check int) "John in two pubs" 2
    (count result ~cuboid:rigid_n ~key_parts:[ "John" ])

let test_naive_rigid_cuboid () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let rigid = X3_lattice.Lattice.rigid_id (lattice_of p) in
  Alcotest.(check int) "4 rigid groups" 4
    (Cube_result.cuboid_size result rigid);
  Alcotest.(check int) "(John,p1,2003)" 1
    (count result ~cuboid:rigid ~key_parts:[ "John"; "p1"; "2003" ])

(* --- algorithm agreement -------------------------------------------------- *)

let correct_algorithms =
  Engine.[ Counter; Buc; Buccust; Td; Tdcust ]

let test_correct_algorithms_agree () =
  let p = prepared () in
  let reference, _ = Engine.run p Engine.Naive in
  let props =
    X3_lattice.Properties.observe (Engine.table p) (lattice_of p)
  in
  List.iter
    (fun algorithm ->
      let result, _ = Engine.run ~props p algorithm in
      match
        Cube_result.first_difference ~func:Aggregate.Count reference result
      with
      | None -> ()
      | Some (cuboid, key, what) ->
          Alcotest.failf "%s differs at cuboid %d %s: %s"
            (Engine.algorithm_to_string algorithm)
            cuboid key what)
    correct_algorithms

let test_optimised_algorithms_wrong_on_figure1 () =
  (* Figure 1 violates both properties, so the optimised variants must
     produce different (wrong) cubes — exactly §4.3's observation. *)
  let p = prepared () in
  let reference, _ = Engine.run p Engine.Naive in
  List.iter
    (fun algorithm ->
      let result, _ = Engine.run p algorithm in
      Alcotest.(check bool)
        (Engine.algorithm_to_string algorithm ^ " computes a different cube")
        false
        (Cube_result.equal ~func:Aggregate.Count reference result))
    Engine.[ Bucopt; Tdopt; Tdoptall ]

let test_all_algorithms_agree_on_clean_data () =
  let doc =
    parse_ok
      {|<db>
         <r><a>1</a><b>x</b></r>
         <r><a>2</a><b>x</b></r>
         <r><a>1</a><b>y</b></r>
         <r><a>3</a><b>z</b></r>
       </db>|}
  in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
      X3_pattern.Axis.make_exn ~name:"$b" ~steps:[ step c "b" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes in
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  let props = X3_lattice.Properties.observe (Engine.table p) (lattice_of p) in
  Alcotest.(check bool) "clean data: all disjoint" true
    (X3_lattice.Properties.all_disjoint props);
  let reference, _ = Engine.run p Engine.Naive in
  List.iter
    (fun algorithm ->
      let result, _ = Engine.run ~props p algorithm in
      Alcotest.(check bool)
        (Engine.algorithm_to_string algorithm ^ " agrees")
        true
        (Cube_result.equal ~func:Aggregate.Count reference result))
    Engine.all_algorithms

let test_counter_multipass () =
  let p = prepared () in
  let config = { Engine.default_config with counter_budget = 3; sort_budget = 1000 } in
  let result, instr = Engine.run ~config p Engine.Counter in
  let reference, _ = Engine.run p Engine.Naive in
  Alcotest.(check bool) "still correct" true
    (Cube_result.equal ~func:Aggregate.Count reference result);
  Alcotest.(check bool) "needed multiple passes" true
    (instr.Instrument.passes > 1)

let test_td_external_sort () =
  let p = prepared () in
  let config = { Engine.default_config with counter_budget = 1_000_000; sort_budget = 2 } in
  let result, _ = Engine.run ~config p Engine.Td in
  let reference, _ = Engine.run p Engine.Naive in
  Alcotest.(check bool) "external sorting stays correct" true
    (Cube_result.equal ~func:Aggregate.Count reference result)

let test_instrumentation_sanity () =
  let p = prepared () in
  let _, instr_naive = Engine.run p Engine.Naive in
  Alcotest.(check int) "naive scans once" 1 instr_naive.Instrument.table_scans;
  let _, instr_td = Engine.run p Engine.Td in
  (* One columnarising scan plus one emulated scan per base cuboid. *)
  Alcotest.(check int) "td scans per cuboid" 31 instr_td.Instrument.table_scans;
  Alcotest.(check int) "td radix grouping covers every cuboid" 30
    (instr_td.Instrument.radix_groupings + instr_td.Instrument.hash_groupings);
  let hash_config = { Engine.default_config with radix_bits = 0 } in
  let _, instr_td_hash = Engine.run ~config:hash_config p Engine.Td in
  Alcotest.(check int) "td sorts per cuboid with radix off" 30
    instr_td_hash.Instrument.sort_ops;
  Alcotest.(check int) "td hash groupings with radix off" 30
    instr_td_hash.Instrument.hash_groupings;
  Alcotest.(check int) "td no radix groupings with radix off" 0
    instr_td_hash.Instrument.radix_groupings;
  let _, instr_tdoptall = Engine.run p Engine.Tdoptall in
  Alcotest.(check int) "tdoptall touches base once" 1
    instr_tdoptall.Instrument.base_computations;
  Alcotest.(check int) "tdoptall rolls up the rest" 29
    instr_tdoptall.Instrument.rollups

(* --- measures beyond COUNT ------------------------------------------------ *)

let test_sum_measure () =
  let doc =
    parse_ok
      {|<db>
         <r><a>x</a><price>10</price></r>
         <r><a>x</a><price>5</price></r>
         <r><a>y</a><price>2.5</price></r>
       </db>|}
  in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec =
    {
      Engine.fact_path = [ step d "r" ];
      axes;
      func = Aggregate.Sum;
      measure_path = Some [ step c "price" ];
      filters = [];
    }
  in
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  let result, _ = Engine.run p Engine.Naive in
  let l = lattice_of p in
  let by_a = X3_lattice.Lattice.rigid_id l in
  let sum key_parts =
    match
      Cube_result.find result ~cuboid:by_a ~key:key_parts
    with
    | Some cell -> Aggregate.value Aggregate.Sum cell
    | None -> nan
  in
  Alcotest.(check (float 1e-9)) "sum x" 15. (sum [ "x" ]);
  Alcotest.(check (float 1e-9)) "sum y" 2.5 (sum [ "y" ]);
  let top = X3_lattice.Lattice.most_relaxed_id l in
  match Cube_result.find result ~cuboid:top ~key:[] with
  | Some cell ->
      Alcotest.(check (float 1e-9)) "sum all" 17.5
        (Aggregate.value Aggregate.Sum cell)
  | None -> Alcotest.fail "missing ALL group"

(* --- WHERE-clause semantics (Engine.filter_holds) ------------------------- *)

let test_filter_holds_edge_cases () =
  let doc =
    parse_ok
      {|<db>
         <r><v>9</v></r>
         <r><v>2</v></r>
         <r><v>abc</v></r>
         <r><v></v></r>
         <r></r>
         <r><v>2</v><v>50</v></r>
       </db>|}
  in
  let store = X3_xdb.Store.of_document doc in
  let facts = Array.of_list (Eval.facts store [ step d "r" ]) in
  let holds i op operand =
    Engine.filter_holds store
      { Engine.filter_path = [ step c "v" ]; op; operand }
      ~fact:facts.(i)
  in
  (* Both sides numeric: compare as numbers ("9" < "10" despite "9" > "10"
     lexicographically, and "2" > "10" lexicographically but not really). *)
  Alcotest.(check bool) "9 < 10 numerically" true (holds 0 Engine.Lt "10");
  Alcotest.(check bool) "2 < 10 numerically" true (holds 1 Engine.Lt "10");
  Alcotest.(check bool) "2 not > 10" false (holds 1 Engine.Gt "10");
  (* Either side non-numeric: lexicographic. *)
  Alcotest.(check bool) "abc > 10 lexicographically" true
    (holds 2 Engine.Gt "10");
  Alcotest.(check bool) "abc not <= 10" false (holds 2 Engine.Le "10");
  (* Empty strings are not numbers; they compare lexicographically. *)
  Alcotest.(check bool) "empty = empty" true (holds 3 Engine.Eq "");
  Alcotest.(check bool) "empty < 0" true (holds 3 Engine.Lt "0");
  Alcotest.(check bool) "empty <> x" true (holds 3 Engine.Neq "x");
  (* No binding at all: existential semantics make every predicate false —
     including Neq, which is not "not Eq" over an empty binding set. *)
  Alcotest.(check bool) "missing binding fails Eq" false (holds 4 Engine.Eq "9");
  Alcotest.(check bool) "missing binding fails Neq" false
    (holds 4 Engine.Neq "9");
  Alcotest.(check bool) "missing binding fails Lt" false (holds 4 Engine.Lt "9");
  (* Multiple bindings: some binding suffices, for every operator. *)
  Alcotest.(check bool) "one of {2,50} = 50" true (holds 5 Engine.Eq "50");
  Alcotest.(check bool) "one of {2,50} < 5" true (holds 5 Engine.Lt "5");
  Alcotest.(check bool) "one of {2,50} > 40" true (holds 5 Engine.Gt "40");
  Alcotest.(check bool) "none of {2,50} = 7" false (holds 5 Engine.Eq "7");
  Alcotest.(check bool) "some of {2,50} <> 50" true (holds 5 Engine.Neq "50")

let test_filter_prunes_facts () =
  let doc =
    parse_ok
      {|<db>
         <r><a>x</a><v>10</v></r>
         <r><a>x</a><v>3</v></r>
         <r><a>y</a></r>
       </db>|}
  in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec =
    {
      Engine.fact_path = [ step d "r" ];
      axes;
      func = Aggregate.Count;
      measure_path = None;
      filters =
        [ { Engine.filter_path = [ step c "v" ]; op = Engine.Ge; operand = "5" } ];
    }
  in
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  Alcotest.(check int) "only the v>=5 fact survives the WHERE clause" 1
    (Witness.fact_count (Engine.table p))

(* --- other aggregate functions across all algorithms ----------------------- *)

let clean_numeric_prepared () =
  let doc =
    parse_ok
      {|<db>
         <r><a>x</a><v>10</v></r>
         <r><a>x</a><v>4</v></r>
         <r><a>y</a><v>7</v></r>
         <r><a>y</a><v>1</v></r>
         <r><a>z</a><v>5</v></r>
       </db>|}
  in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  fun func ->
    let spec =
      {
        Engine.fact_path = [ step d "r" ];
        axes;
        func;
        measure_path = Some [ step c "v" ];
        filters = [];
      }
    in
    Engine.prepare ~pool:(small_pool ()) ~store spec

let test_all_aggregates_all_algorithms () =
  let prepare = clean_numeric_prepared () in
  List.iter
    (fun func ->
      let p = prepare func in
      let props =
        X3_lattice.Properties.observe (Engine.table p) (Engine.lattice p)
      in
      let reference, _ = Engine.run p Engine.Naive in
      List.iter
        (fun algorithm ->
          let result, _ = Engine.run ~props p algorithm in
          Alcotest.(check bool)
            (Aggregate.func_to_string func ^ " via "
            ^ Engine.algorithm_to_string algorithm)
            true
            (Cube_result.equal ~func reference result))
        Engine.all_algorithms)
    Aggregate.[ Count; Sum; Avg; Min; Max ]

let test_aggregate_expected_values () =
  let prepare = clean_numeric_prepared () in
  let p = prepare Aggregate.Avg in
  let result, _ = Engine.run p Engine.Naive in
  let rigid = X3_lattice.Lattice.rigid_id (Engine.lattice p) in
  let value func key =
    match
      Cube_result.find result ~cuboid:rigid ~key:[ key ]
    with
    | Some cell -> Aggregate.value func cell
    | None -> nan
  in
  Alcotest.(check (float 1e-9)) "avg x" 7. (value Aggregate.Avg "x");
  Alcotest.(check (float 1e-9)) "sum y" 8. (value Aggregate.Sum "y");
  Alcotest.(check (float 1e-9)) "min y" 1. (value Aggregate.Min "y");
  Alcotest.(check (float 1e-9)) "max x" 10. (value Aggregate.Max "x")

(* --- axes that cannot be removed ------------------------------------------- *)

let test_non_lnd_axis () =
  (* $a has no LND: every cuboid groups on it; the lattice halves. *)
  let doc = parse_ok "<db><r><a>1</a><b>x</b></r><r><a>2</a><b>x</b></r></db>" in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ] ~allowed:[];
      X3_pattern.Axis.make_exn ~name:"$b" ~steps:[ step c "b" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes in
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  Alcotest.(check int) "lattice size 2" 2
    (X3_lattice.Lattice.size (Engine.lattice p));
  let reference, _ = Engine.run p Engine.Naive in
  let props = X3_lattice.Properties.observe (Engine.table p) (Engine.lattice p) in
  List.iter
    (fun algorithm ->
      let result, _ = Engine.run ~props p algorithm in
      Alcotest.(check bool)
        (Engine.algorithm_to_string algorithm ^ " agrees")
        true
        (Cube_result.equal ~func:Aggregate.Count reference result))
    Engine.all_algorithms

(* --- correct_under table ---------------------------------------------------- *)

let test_correct_under () =
  let check algorithm ~disjoint ~coverage expected =
    Alcotest.(check bool)
      (Engine.algorithm_to_string algorithm)
      expected
      (Engine.correct_under algorithm ~disjoint ~coverage)
  in
  List.iter
    (fun a -> check a ~disjoint:false ~coverage:false true)
    Engine.[ Naive; Counter; Buc; Buccust; Td; Tdcust ];
  check Engine.Bucopt ~disjoint:false ~coverage:true false;
  check Engine.Bucopt ~disjoint:true ~coverage:false true;
  check Engine.Tdopt ~disjoint:false ~coverage:true false;
  check Engine.Tdoptall ~disjoint:true ~coverage:false false;
  check Engine.Tdoptall ~disjoint:true ~coverage:true true

let test_counter_budget_one () =
  (* One counter at a time: maximal eviction pressure, still correct. *)
  let p = prepared () in
  let reference, _ = Engine.run p Engine.Naive in
  let config = { Engine.default_config with counter_budget = 1; sort_budget = 1000 } in
  let result, instr = Engine.run ~config p Engine.Counter in
  Alcotest.(check bool) "correct under extreme pressure" true
    (Cube_result.equal ~func:Aggregate.Count reference result);
  Alcotest.(check bool) "many passes" true (instr.Instrument.passes >= 10)

(* --- group key projection ---------------------------------------------------- *)

(* Re-key to a coarser cuboid the way the roll-ups do: an [land] per key
   word with the cuboid's word masks. *)
let project_key layout ~to_ key =
  let masks = Group_key.word_masks layout to_ in
  match key with
  | Group_key.Packed p -> Group_key.Packed (p land masks.(0))
  | Group_key.Wide w -> Group_key.Wide (Array.mapi (fun i v -> v land masks.(i)) w)

let test_key_projection () =
  let dicts = dicts_of_axes [| [ "z"; "a" ]; [ "b" ]; [ "y"; "x"; "c" ] |] in
  let layout = Group_key.layout_of_sizes (Array.map Witness.Dict.size dicts) in
  let from_ = [| present 0; present 1; present 0 |] in
  let to_all_removed = [| removed; removed; removed |] in
  let to_middle = [| removed; present 1; removed |] in
  let key = Option.get (Group_key.of_parts layout ~dicts from_ [ "a"; "b"; "c" ]) in
  let project to_ =
    Group_key.to_parts layout ~dicts to_ (project_key layout ~to_ key)
  in
  Alcotest.(check (list string)) "project to ALL" [] (project to_all_removed);
  Alcotest.(check (list string)) "project to middle" [ "b" ] (project to_middle)

(* --- packed integer keys ------------------------------------------------- *)

(* Random axis dictionary sizes (some 2^30-sized to force the wide
   fallback), one id per axis, and a random present/removed cuboid. *)
let gen_packed_case =
  let open QCheck2.Gen in
  let* sizes =
    list_size (int_range 1 6)
      (oneofl [ 1; 2; 3; 7; 100; 65_536; 1 lsl 30 ])
  in
  let* ids = flatten_l (List.map (fun n -> int_bound (n - 1)) sizes) in
  let* present = flatten_l (List.map (fun _ -> bool) sizes) in
  return (Array.of_list sizes, Array.of_list ids, Array.of_list present)

let cuboid_of_bools bools =
  Array.map (fun p -> if p then present 0 else removed) bools

let prop_packed_key_roundtrip =
  QCheck2.Test.make ~name:"packed key roundtrip (incl. wide fallback)"
    ~count:300 gen_packed_case (fun (sizes, ids, bools) ->
      let layout = Group_key.layout_of_sizes sizes in
      let cuboid = cuboid_of_bools bools in
      let key = Group_key.of_axis_ids layout cuboid ids in
      let ids_survive =
        Array.for_all Fun.id
          (Array.mapi
             (fun ai p -> (not p) || Group_key.id_at layout key ~axis:ai = ids.(ai))
             bools)
      in
      let representation_matches =
        match key with
        | Group_key.Packed _ -> layout.Group_key.packed_fits
        | Group_key.Wide _ -> not layout.Group_key.packed_fits
      in
      (* The allocation-free scratch path builds the same key. *)
      let scratch = Group_key.make_scratch layout in
      Group_key.load_ids scratch cuboid ids;
      let sortable_roundtrips =
        let back = Group_key.make_scratch layout in
        Group_key.load_sortable back (Group_key.scratch_sortable scratch);
        Group_key.equal key (Group_key.freeze back)
      in
      ids_survive && representation_matches && sortable_roundtrips
      && Group_key.equal key (Group_key.freeze scratch))

let prop_packed_key_project =
  QCheck2.Test.make ~name:"packed key projection drops removed axes"
    ~count:300
    QCheck2.Gen.(
      pair gen_packed_case
        (list_size (int_range 1 6) bool))
    (fun ((sizes, ids, bools), keep) ->
      let layout = Group_key.layout_of_sizes sizes in
      let cuboid = cuboid_of_bools bools in
      let keep = Array.of_list keep in
      let coarser =
        Array.mapi
          (fun ai p ->
            if p && ai < Array.length keep && keep.(ai) then present 0
            else removed)
          bools
      in
      let key = Group_key.of_axis_ids layout cuboid ids in
      Group_key.equal
        (project_key layout ~to_:coarser key)
        (Group_key.of_axis_ids layout coarser ids))

(* One cube over a single LND axis [$a] on [<db><r><a>v</a></r>...</db>],
   one fact per listed value. *)
let one_axis_cube values =
  let doc =
    parse_ok
      ("<db>"
      ^ String.concat "" (List.map (Printf.sprintf "<r><a>%s</a></r>") values)
      ^ "</db>")
  in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes in
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  fst (Engine.run p Engine.Naive)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_long_value_rejected_not_corrupted () =
  (* The external-sort record still stores its key length in a u16 field:
     a 64 KiB key must raise there rather than wrap into a corrupt record.
     Long values themselves flow through the dictionary layer, which has
     no such ceiling. *)
  let big = String.make 0x10000 'b' in
  (try
     ignore (Sort_record.encode ~key:big ~fact:0 ~measure:1.);
     Alcotest.fail "Sort_record.encode must reject a 64 KiB key"
   with Invalid_argument _ -> ());
  let result = one_axis_cube [ big; big ] in
  let rigid = X3_lattice.Lattice.rigid_id (Cube_result.lattice result) in
  Alcotest.(check int) "one huge-valued group" 1
    (Cube_result.cuboid_size result rigid);
  let total = ref 0. in
  Cube_result.iter
    (fun ~cuboid ~key:_ cell ->
      if cuboid = rigid then
        total := !total +. Aggregate.value Aggregate.Count cell)
    result;
  Alcotest.(check (float 1e-9)) "both facts counted" 2. !total

let test_long_value_exports () =
  (* A 64 KiB value has no length ceiling anywhere between the dictionary
     and the exported bytes. *)
  let big = String.make 0x10000 'b' in
  let result = one_axis_cube [ big; big ] in
  let rigid = X3_lattice.Lattice.rigid_id (Cube_result.lattice result) in
  Alcotest.(check int) "one huge-valued group" 1
    (Cube_result.cuboid_size result rigid);
  Alcotest.(check (list (pair (list string) (float 1e-9))))
    "both facts counted" [ ([ big ], 2.) ]
    (List.map
       (fun (key, cell) -> (key, Aggregate.value Aggregate.Count cell))
       (Cube_result.cuboid_cells result rigid));
  Alcotest.(check bool) "csv holds the value" true
    (contains ~sub:("0,0," ^ big ^ ",2\n")
       (Export.csv_string ~func:Aggregate.Count result));
  Alcotest.(check bool) "json holds the value" true
    (contains ~sub:("[\"" ^ big ^ "\"]")
       (Export.json_string ~func:Aggregate.Count result))

(* Groups are listed in the byte order of u16 little-endian
   length-prefixed values: low length byte first. The expected order —
   lengths 256, 1, 257, 2, 300, 255 — is the output of the release that
   still sorted by that encoding, copied here, not recomputed. *)
let test_export_order_golden () =
  let value (ch, len, _) = String.make len ch in
  let by_document_order =
    [ ('f', 300, 1); ('a', 1, 2); ('b', 256, 3); ('c', 2, 1); ('d', 257, 2);
      ('e', 255, 3) ]
  in
  let expected_order =
    [ ('b', 256, 3); ('a', 1, 2); ('d', 257, 2); ('c', 2, 1); ('f', 300, 1);
      ('e', 255, 3) ]
  in
  let result =
    one_axis_cube
      (List.concat_map
         (fun ((_, _, count) as v) -> List.init count (fun _ -> value v))
         by_document_order)
  in
  let func = Aggregate.Count in
  Alcotest.(check string) "csv"
    ("cuboid,degree,$a,COUNT\n"
    ^ String.concat ""
        (List.map
           (fun ((_, _, n) as v) -> Printf.sprintf "0,0,%s,%d\n" (value v) n)
           expected_order)
    ^ "1,1,(ALL),12\n")
    (Export.csv_string ~func result);
  Alcotest.(check string) "json"
    ("[\n  {\"cuboid\": 0, \"states\": [\"$a:rigid\"], \"groups\": ["
    ^ String.concat ", "
        (List.map
           (fun ((_, _, n) as v) ->
             Printf.sprintf "{\"key\": [\"%s\"], \"value\": %d}" (value v) n)
           expected_order)
    ^ "]},\n  {\"cuboid\": 1, \"states\": [\"$a:LND\"], \"groups\": \
       [{\"key\": [], \"value\": 12}]}\n]\n")
    (Export.json_string ~func result);
  Alcotest.(check string) "pp"
    ("cuboid 0 ($a:rigid): 6 group(s)\n"
    ^ String.concat ""
        (List.map
           (fun ((_, _, n) as v) ->
             Printf.sprintf "  (%s) COUNT=%d\n" (value v) n)
           expected_order)
    ^ "cuboid 1 ($a:LND): 1 group(s)\n  () COUNT=12\n")
    (Format.asprintf "%a" (Cube_result.pp ?max_groups:None ~func) result)

(* A cube on [<db><r><a0>v</a0>...<ak>v</ak></r>...</db>]: one fact per
   row of values; axis [$aj] allows LND when [j < relaxable] and is
   always present otherwise. *)
let multi_axis_cube ~relaxable rows =
  let k = match rows with [] -> 0 | r :: _ -> List.length r in
  let doc =
    parse_ok
      ("<db>"
      ^ String.concat ""
          (List.map
             (fun values ->
               "<r>"
               ^ String.concat ""
                   (List.mapi
                      (fun j v -> Printf.sprintf "<a%d>%s</a%d>" j v j)
                      values)
               ^ "</r>")
             rows)
      ^ "</db>")
  in
  let axes =
    Array.init k (fun j ->
        X3_pattern.Axis.make_exn ~name:(Printf.sprintf "$a%d" j)
          ~steps:[ step c (Printf.sprintf "a%d" j) ]
          ~allowed:(if j < relaxable then [ Relax.Lnd ] else []))
  in
  let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes in
  let p =
    Engine.prepare ~pool:(small_pool ()) ~store:(X3_xdb.Store.of_document doc)
      spec
  in
  (Engine.table p, fst (Engine.run p Engine.Naive))

(* Value lengths whose u16 length bytes are (0,0), (1,0), (255,0), (0,1)
   and (1,1). *)
let order_lengths = [ 0; 1; 255; 256; 257 ]

let md5 s = Digest.to_hex (Digest.string s)

(* Every cuboid's groups in the order of their [Fixtures.u16_key]s: the
   oracle shares no code with the engine's ranks. *)
let check_u16_order name result =
  Array.iter
    (fun cid ->
      let keys =
        List.map
          (fun (values, _) -> u16_key values)
          (Cube_result.cuboid_cells result cid)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: cuboid %d in u16 order" name cid)
        true
        (keys = List.sort String.compare keys))
    (X3_lattice.Lattice.by_degree (Cube_result.lattice result))

(* Digests of the three renderings, taken from the release before the
   radix-sorted export, not recomputed. *)
let check_digests name result ~csv ~json ~pp =
  let func = Aggregate.Count in
  Alcotest.(check string) (name ^ ": csv") csv
    (md5 (Export.csv_string ~func result));
  Alcotest.(check string) (name ^ ": json") json
    (md5 (Export.json_string ~func result));
  Alcotest.(check string) (name ^ ": pp") pp
    (md5
       (Format.asprintf "%a" (Cube_result.pp ~max_groups:max_int ~func) result))

let test_export_order_two_axes () =
  let rows =
    List.concat_map
      (fun la ->
        List.concat_map
          (fun lb ->
            let row = [ String.make la 'a'; String.make lb 'b' ] in
            List.init (1 + ((la + lb) mod 3)) (fun _ -> row))
          order_lengths)
      order_lengths
  in
  let table, result = multi_axis_cube ~relaxable:2 rows in
  Alcotest.(check bool) "packed layout" true
    (Group_key.layout_of_table table).Group_key.packed_fits;
  check_u16_order "two axes" result;
  check_digests "two axes" result ~csv:"95c6e487d2644fb87a894de52170190f"
    ~json:"01c095ee8b8a6ffcb5e6a0dd9b37c4cd"
    ~pp:"7c395f3fb9cba59cfa7c2dd48fd0e5d2"

(* Seven axes whose dictionaries need 68 bits, past the packed budget:
   the first two carry the awkward lengths, the other five a distinct
   number per fact. *)
let test_export_order_wide () =
  let rows =
    List.init 600 (fun i ->
        let awkward j =
          let len = List.nth order_lengths ((i + j) mod 5) in
          if len <= 1 then String.make len (Char.chr (Char.code 'a' + (i mod 26)))
          else Printf.sprintf "%06d" i ^ String.make (len - 6) 'x'
        in
        [ awkward 0; awkward 1 ]
        @ List.init 5 (fun j -> string_of_int (i * (j + 3) mod 601)))
  in
  let table, result = multi_axis_cube ~relaxable:2 rows in
  Alcotest.(check bool) "wide layout" false
    (Group_key.layout_of_table table).Group_key.packed_fits;
  check_u16_order "wide" result;
  check_digests "wide" result ~csv:"0056eb3637501ca46c5e24791db0bb47"
    ~json:"128d9b11f42018c9562ef44a03d38685"
    ~pp:"b73621f5c2dcb7e04a8ddad171a786dd"

(* --- coded path vs legacy string grouping --------------------------------- *)

(* Reference cube computed the way the engine grouped before dictionary
   encoding: keys assembled from decoded cell values, plain Hashtbl, and
   groups listed in the byte order of their u16 little-endian
   length-prefixed encoding ([Fixtures.u16_key], independent of the
   engine's per-axis ranks). Every algorithm's output must be
   identical. *)
let legacy_reference_cells p =
  let table = Engine.table p in
  let lattice = Engine.lattice p in
  let measure = Engine.measure p in
  let key_parts cuboid row =
    let parts = ref [] in
    Array.iteri
      (fun ai state ->
        match state with
        | X3_lattice.State.Removed -> ()
        | X3_lattice.State.Present _ -> (
            match
              Witness.cell_value table ~axis_index:ai row.Witness.cells.(ai)
            with
            | Some v -> parts := v :: !parts
            | None -> assert false))
      cuboid;
    List.rev !parts
  in
  (* The row is its fact's representative in the cuboid: every present
     axis is bound and valid at its state, every removed axis holds the
     fact's first binding. *)
  let represents cuboid (row : Witness.row) =
    let ok = ref true in
    Array.iteri
      (fun ai state ->
        match state with
        | X3_lattice.State.Removed ->
            if not row.Witness.cells.(ai).Witness.first then ok := false
        | X3_lattice.State.Present m ->
            if not (Witness.qualifies row ~axis_index:ai ~state:m) then
              ok := false)
      cuboid;
    !ok
  in
  Array.map
    (fun cid ->
      let cuboid = X3_lattice.Lattice.cuboid lattice cid in
      let groups : (string list, float) Hashtbl.t = Hashtbl.create 64 in
      Witness.iter_fact_blocks
        (fun block ->
          let seen = Hashtbl.create 4 in
          List.iter
            (fun row ->
              if represents cuboid row then begin
                let key = key_parts cuboid row in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.add seen key ();
                  Hashtbl.replace groups key
                    (Option.value (Hashtbl.find_opt groups key) ~default:0.
                    +. measure row.Witness.fact)
                end
              end)
            block)
        table;
      Hashtbl.fold (fun key v acc -> (key, v) :: acc) groups []
      |> List.sort (fun (a, _) (b, _) ->
             String.compare (u16_key a) (u16_key b)))
    (X3_lattice.Lattice.by_degree lattice)

let test_coded_path_matches_legacy_grouping () =
  let p = prepared () in
  let expected = legacy_reference_cells p in
  let props = X3_lattice.Properties.observe (Engine.table p) (lattice_of p) in
  List.iter
    (fun algorithm ->
      let result, _ = Engine.run ~props p algorithm in
      Array.iteri
        (fun i cid ->
          let got =
            List.map
              (fun (key, cell) ->
                (key, Aggregate.value Aggregate.Count cell))
              (Cube_result.cuboid_cells result cid)
          in
          Alcotest.(check (list (pair (list string) (float 1e-9))))
            (Printf.sprintf "%s cuboid %d"
               (Engine.algorithm_to_string algorithm)
               cid)
            expected.(i) got)
        (X3_lattice.Lattice.by_degree (lattice_of p)))
    (Engine.Naive :: correct_algorithms)

(* --- external sorting through a real file ------------------------------------ *)

let test_td_with_file_backed_disk () =
  let path = Filename.temp_file "x3sort" ".pages" in
  let pool =
    X3_storage.Buffer_pool.create ~capacity_pages:16
      (X3_storage.Disk.on_file ~page_size:1024 path)
  in
  let store = figure1_store () in
  let spec = Engine.count_spec ~fact_path ~axes:(query1_axes ()) in
  let p = Engine.prepare ~pool ~store spec in
  let config = { Engine.default_config with counter_budget = 1_000_000; sort_budget = 2 } in
  let result, _ = Engine.run ~config p Engine.Td in
  let reference, _ = Engine.run p Engine.Naive in
  Alcotest.(check bool) "file-backed external sorts stay correct" true
    (Cube_result.equal ~func:Aggregate.Count reference result);
  X3_storage.Disk.close (X3_storage.Buffer_pool.disk pool);
  Alcotest.(check bool) "spill file cleaned up" false (Sys.file_exists path)

(* --- materialized intermediates (§3.6) ------------------------------------ *)

let context_of p =
  X3_core.Context.create ~table:(Engine.table p) ~lattice:(Engine.lattice p)
    ~measure:(Engine.measure p) ()

let test_materialize_matches_naive () =
  let p = prepared () in
  let ctx = context_of p in
  let reference, _ = Engine.run p Engine.Naive in
  let cuboid = X3_lattice.Lattice.rigid_id (lattice_of p) in
  let intermediate = Materialized.materialize ctx ~cuboid in
  List.iter
    (fun (key, cell) ->
      match Cube_result.find reference ~cuboid ~key with
      | Some expected ->
          Alcotest.(check bool) "cell agrees" true
            (Aggregate.equal_value Aggregate.Count expected cell)
      | None -> Alcotest.fail "group not in reference")
    (Materialized.cells intermediate);
  Alcotest.(check int) "group count" 4
    (Materialized.group_count intermediate)

let test_materialized_fact_items () =
  let p = prepared () in
  let ctx = context_of p in
  (* Cuboid (n removed, p rigid, y rigid): group (p1, 2003) holds exactly
     publication 1, despite its two authors. *)
  let cuboid = cuboid_id p [ removed; present 0; present 0 ] in
  let intermediate = Materialized.materialize ctx ~cuboid in
  Alcotest.(check int) "one fact in (p1, 2003)" 1
    (List.length
       (Materialized.fact_items intermediate
          ~key:[ "p1"; "2003" ]))

let test_materialized_rollup_dedups () =
  (* Roll (n:{PC-AD}, p:removed, y:rigid) up to group-by year: fact sets
     keep publication 1 (two authors) counted once, and PC-AD covers Bob,
     so the roll-up is exact. *)
  let p = prepared () in
  let ctx = context_of p in
  let props =
    X3_lattice.Properties.observe (Engine.table p) (lattice_of p)
  in
  let finer = cuboid_id p [ present 1; removed; present 0 ] in
  let coarser = cuboid_id p [ removed; removed; present 0 ] in
  let intermediate = Materialized.materialize ctx ~cuboid:finer in
  match Materialized.rollup ctx ~props intermediate ~coarser with
  | Error msg -> Alcotest.failf "rollup refused: %s" msg
  | Ok rolled ->
      let reference, _ = Engine.run p Engine.Naive in
      List.iter
        (fun (key, cell) ->
          match Cube_result.find reference ~cuboid:coarser ~key with
          | Some expected ->
              Alcotest.(check bool)
                ("group " ^ String.concat ", " key)
                true
                (Aggregate.equal_value Aggregate.Count expected cell)
          | None -> Alcotest.fail "extra group after rollup")
        (Materialized.cells rolled)

let test_materialized_rollup_refuses_uncovered () =
  (* From the rigid-$n intermediate, group-by year misses publication 3
     (nested author): every path is uncovered, so rollup must refuse —
     §3.6's "incompleteness of coverage directly affects the computation
     from these intermediate results". *)
  let p = prepared () in
  let ctx = context_of p in
  let props =
    X3_lattice.Properties.observe (Engine.table p) (lattice_of p)
  in
  let finer = cuboid_id p [ present 0; removed; present 0 ] in
  let coarser = cuboid_id p [ removed; removed; present 0 ] in
  let intermediate = Materialized.materialize ctx ~cuboid:finer in
  (match Materialized.rollup ctx ~props intermediate ~coarser with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "uncovered rollup must be refused");
  (* The unchecked version demonstrates the failure: 2003 loses Bob. *)
  let rolled = Materialized.rollup_unchecked ctx intermediate ~coarser in
  let count_2003 cells =
    List.assoc_opt [ "2003" ] cells
    |> Option.map (Aggregate.value Aggregate.Count)
  in
  Alcotest.(check (option (float 1e-9))) "2003 undercounted" (Some 1.)
    (count_2003 (Materialized.cells rolled))

(* The serve cache admits and evicts views by [approx_bytes]: the figures
   here were computed for figure 1's views by the release before views
   counted in a Group_table, and must not move. *)
let test_materialized_approx_bytes_pinned () =
  let p = prepared () in
  let session = Engine.Session.create p in
  Alcotest.(check (list int)) "approx_bytes per cuboid"
    [ 672; 672; 672; 672; 672; 576; 672; 672; 672; 672; 808; 712; 672; 672;
      672; 672; 672; 576; 672; 672; 672; 672; 808; 712; 536; 440; 536; 440;
      576; 384 ]
    (List.init (X3_lattice.Lattice.size (lattice_of p)) (fun cuboid ->
         Materialized.approx_bytes (Engine.Session.materialize session ~cuboid)))

let test_materialized_rollup_rejects_non_relaxation () =
  let p = prepared () in
  let ctx = context_of p in
  let props = X3_lattice.Properties.none (lattice_of p) in
  let a = cuboid_id p [ present 0; removed; removed ] in
  let b = cuboid_id p [ removed; present 0; removed ] in
  let intermediate = Materialized.materialize ctx ~cuboid:a in
  match Materialized.rollup ctx ~props intermediate ~coarser:b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomparable cuboids must be rejected"

(* --- export ---------------------------------------------------------------- *)

let test_export_csv () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let csv = Export.csv_string ~func:Aggregate.Count result in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check string) "header" "cuboid,degree,$n,$p,$y,COUNT"
    (List.hd lines);
  (* One data line per cell. *)
  Alcotest.(check int) "line count"
    (Cube_result.total_cells result)
    (List.length (List.tl lines));
  Alcotest.(check bool) "ALL marker present" true
    (List.exists (fun l -> String.length l > 0 &&
        List.exists (String.equal "(ALL)") (String.split_on_char ',' l))
       lines)

let treebank_prepared config =
  let store = X3_xdb.Store.of_document (X3_workload.Treebank.generate config) in
  let pool =
    X3_storage.Buffer_pool.create ~capacity_pages:4096
      (X3_storage.Disk.in_memory ~page_size:8192 ())
  in
  Engine.prepare ~pool ~store (X3_workload.Treebank.spec config)

(* A stop that lands while a long-lived context builds its columns gives
   the build's booking back; the next build books them afresh. *)
let test_cols_stop_releases_booking () =
  let p =
    treebank_prepared { X3_workload.Treebank.default with num_trees = 200 }
  in
  let account = Governor.open_account ~max_bytes:(1 lsl 40) None in
  let ctx =
    X3_core.Context.create ~account ~table:(Engine.table p)
      ~lattice:(Engine.lattice p) ~measure:(Engine.measure p) ()
  in
  let before = Governor.account_used account in
  let stop = ref true in
  Context.set_cancel_hook ctx (fun () -> !stop);
  (match Context.cols ctx with
  | _ -> Alcotest.fail "the cancel hook must stop the build"
  | exception Context.Stop Context.Cancelled -> ());
  Alcotest.(check int) "booking released" before
    (Governor.account_used account);
  stop := false;
  Context.clear_stop ctx;
  let cols = Context.cols ctx in
  Alcotest.(check int) "columns booked once"
    (before
    + Witness.Columnar.approx_bytes ~axes:(Witness.Columnar.axes cols)
        ~rows:(Witness.Columnar.rows cols) ~blocks:(Witness.Columnar.blocks cols)
    )
    (Governor.account_used account)

(* Three inputs, each with the csv/json/pp digests every correct family
   at 1 and 2 workers must reproduce. The digests were taken from the
   release before COUNTER handed its tables over and export sorted rank
   keys; they are not computed by the code under test. *)
let golden_inputs () =
  [
    ( "figure 1, query 1",
      prepared (),
      false,
      ( "a150dcc65abd415ab38c5f624a676aa1",
        "f39ac4c0a529c03f8ff2d2ada475046a",
        "1b7bf5efd560b0bedbeeeb8fcf488f69" ) );
    ( "treebank defaults",
      treebank_prepared X3_workload.Treebank.default,
      false,
      ( "5e49f5f8eae5236ff347e106a3a445b1",
        "e271e61afb191853dd9f6ff48bd2061d",
        "1289d5d8837dc2774ac726830c69a5de" ) );
    ( "treebank, 7 sparse axes",
      treebank_prepared
        { X3_workload.Treebank.default with axes = 7; coverage = false },
      true,
      ( "91604ddee055978bc5452d1b59899cfd",
        "f269366fa768ae0bf4bbe97eb5b53f8b",
        "6195b58ae1610a0f5ad9dfb643508723" ) );
  ]

let test_export_golden_digests () =
  List.iter
    (fun (name, p, wide, (csv, json, pp)) ->
      Alcotest.(check bool) (name ^ ": wide layout") wide
        (not (Group_key.layout_of_table (Engine.table p)).Group_key.packed_fits);
      List.iter
        (fun algorithm ->
          List.iter
            (fun workers ->
              let result, _ = Engine.run ~workers p algorithm in
              check_digests
                (Printf.sprintf "%s, %s at %d workers" name
                   (Engine.algorithm_to_string algorithm)
                   workers)
                result ~csv ~json ~pp)
            [ 1; 2 ])
        Engine.[ Naive; Counter; Buc; Td ])
    (golden_inputs ())

(* COUNTER hands each finished counter table to the result as it stands,
   so the slots its entries landed in are whatever its inserts left;
   the export must not see them. A budget of 40 counters makes several
   passes, each handing over tables it filled. (The golden digests cover
   the one-pass default.) *)
let test_counter_handoff_export () =
  List.iter
    (fun (name, p, _, _) ->
      let config = { Engine.default_config with counter_budget = 40 } in
      let result, instr = Engine.run ~config p Engine.Counter in
      Alcotest.(check bool) (name ^ ": several passes") true
        (instr.Instrument.passes > 1);
      Alcotest.(check string)
        (name ^ ": COUNTER at budget 40 = NAIVE")
        (Export.csv_string ~func:Aggregate.Count (fst (Engine.run p Engine.Naive)))
        (Export.csv_string ~func:Aggregate.Count result))
    (golden_inputs ())

(* Integral values take the digit-by-digit path; every value must print
   exactly as [Printf] did. *)
let test_number_formatting () =
  List.iter
    (fun v ->
      let expected =
        if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
        else Printf.sprintf "%g" v
      in
      let buf = Buffer.create 16 in
      Export.add_number buf v;
      Alcotest.(check string) (Printf.sprintf "%h" v) expected
        (Buffer.contents buf))
    [
      0.; -0.; 1.; -1.; 0x1p53; -0x1p53; 1e15 -. 1.; -.(1e15 -. 1.); 1e15;
      -1e15; Float.nan; 2.5; -0.5; 1e20; Float.infinity;
    ]

let test_export_csv_quoting () =
  let result = one_axis_cube [ {|x,y "z"|} ] in
  let csv = Export.csv_string ~func:Aggregate.Count result in
  Alcotest.(check bool) "field quoted" true (contains ~sub:{|"x,y ""z"""|} csv)

let test_export_json_shape () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  let json = Export.json_string ~func:Aggregate.Count result in
  let count c = String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 json in
  Alcotest.(check int) "balanced brackets" (count '[') (count ']');
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check bool) "mentions all cuboids" true
    (count '{' > X3_lattice.Lattice.size (lattice_of p))

(* --- pivot (cross-tab) ------------------------------------------------------- *)

let test_pivot_figure1 () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  (* Rows: $n at PC-AD (so Bob appears); columns: $y rigid. *)
  match
    Pivot.make ~func:Aggregate.Count ~row_axis:0 ~row_state:1 ~col_axis:2
      result
  with
  | Error msg -> Alcotest.failf "pivot failed: %s" msg
  | Ok pivot ->
      Alcotest.(check (list string)) "rows" [ "Ann"; "Bob"; "Jane"; "John" ]
        pivot.Pivot.row_labels;
      Alcotest.(check (list string)) "cols" [ "2003"; "2004"; "2005" ]
        pivot.Pivot.col_labels;
      (* John x 2004 = publication 2. *)
      let r = 3 and c = 1 in
      Alcotest.(check (option (float 1e-9))) "John 2004" (Some 1.)
        pivot.Pivot.body.(r).(c);
      (* Ann has no year binding: empty body row, but a row total of 1. *)
      Alcotest.(check bool) "Ann row empty" true
        (Array.for_all (fun v -> v = None) pivot.Pivot.body.(0));
      Alcotest.(check (option (float 1e-9))) "Ann total" (Some 1.)
        pivot.Pivot.row_totals.(0);
      Alcotest.(check (option (float 1e-9))) "grand total" (Some 4.)
        pivot.Pivot.grand_total;
      (* Rendering sanity. *)
      let rendered = Format.asprintf "%a" Pivot.pp pivot in
      Alcotest.(check bool) "mentions total" true
        (String.length rendered > 0)

let test_pivot_rejects_same_axis () =
  let p = prepared () in
  let result, _ = Engine.run p Engine.Naive in
  match Pivot.make ~func:Aggregate.Count ~row_axis:1 ~col_axis:1 result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "same axis twice must be rejected"

let test_pivot_marginals_consistent () =
  (* Column totals are the marginal cuboid, not the sum of the body — with
     coverage failures they can exceed it; on clean data they agree. *)
  let doc =
    parse_ok
      {|<db>
         <r><a>x</a><b>1</b></r>
         <r><a>x</a><b>2</b></r>
         <r><a>y</a><b>1</b></r>
       </db>|}
  in
  let store = X3_xdb.Store.of_document doc in
  let axes =
    [|
      X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
        ~allowed:[ Relax.Lnd ];
      X3_pattern.Axis.make_exn ~name:"$b" ~steps:[ step c "b" ]
        ~allowed:[ Relax.Lnd ];
    |]
  in
  let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes in
  let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
  let result, _ = Engine.run p Engine.Naive in
  match Pivot.make ~func:Aggregate.Count ~row_axis:0 ~col_axis:1 result with
  | Error msg -> Alcotest.failf "pivot: %s" msg
  | Ok pivot ->
      let sum_opt arr =
        Array.fold_left
          (fun acc v -> acc +. Option.value v ~default:0.)
          0. arr
      in
      Alcotest.(check (float 1e-9)) "row totals sum to grand" 3.
        (sum_opt pivot.Pivot.row_totals);
      Alcotest.(check (float 1e-9)) "col totals sum to grand" 3.
        (sum_opt pivot.Pivot.col_totals)

(* --- randomized cross-checking -------------------------------------------- *)

(* Random shallow documents over a small vocabulary with repeats and
   missing children, cubed on two axes: every always-correct algorithm must
   match NAIVE, and property-respecting optimised variants must match when
   the observed properties license them. *)
let gen_random_case =
  let open QCheck2.Gen in
  let value = oneofl [ "u"; "v"; "w" ] in
  let child tag = map (fun v -> X3_xml.Tree.elem tag [ X3_xml.Tree.text v ]) value in
  let wrapped tag =
    map
      (fun v ->
        X3_xml.Tree.elem "wrap" [ X3_xml.Tree.elem tag [ X3_xml.Tree.text v ] ])
      value
  in
  let fact =
    map2
      (fun xs ys -> X3_xml.Tree.elem "r" (xs @ ys))
      (list_size (int_bound 3) (oneof [ child "a"; wrapped "a" ]))
      (list_size (int_bound 3) (child "b"))
  in
  map
    (fun facts ->
      match X3_xml.Tree.elem "db" facts with
      | X3_xml.Tree.Element e -> X3_xml.Tree.document e
      | _ -> assert false)
    (list_size (int_range 1 12) fact)

let random_axes () =
  [|
    X3_pattern.Axis.make_exn ~name:"$a" ~steps:[ step c "a" ]
      ~allowed:[ Relax.Lnd; Relax.Pc_ad ];
    X3_pattern.Axis.make_exn ~name:"$b" ~steps:[ step c "b" ]
      ~allowed:[ Relax.Lnd ];
  |]

let prop_algorithms_agree =
  QCheck2.Test.make ~name:"correct algorithms = naive on random data"
    ~count:60 gen_random_case (fun doc ->
      let store = X3_xdb.Store.of_document doc in
      let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(random_axes ()) in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      let props = X3_lattice.Properties.observe (Engine.table p) (Engine.lattice p) in
      let reference, _ = Engine.run p Engine.Naive in
      List.for_all
        (fun algorithm ->
          let result, _ = Engine.run ~props p algorithm in
          Cube_result.equal ~func:Aggregate.Count reference result)
        correct_algorithms)

let prop_optimised_correct_when_licensed =
  QCheck2.Test.make
    ~name:"optimised variants correct when observed properties license them"
    ~count:60 gen_random_case (fun doc ->
      let store = X3_xdb.Store.of_document doc in
      let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(random_axes ()) in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      let props = X3_lattice.Properties.observe (Engine.table p) (Engine.lattice p) in
      let reference, _ = Engine.run p Engine.Naive in
      let check algorithm licensed =
        (not licensed)
        ||
        let result, _ = Engine.run ~props p algorithm in
        Cube_result.equal ~func:Aggregate.Count reference result
      in
      let d = X3_lattice.Properties.all_strictly_disjoint props in
      let cov = X3_lattice.Properties.all_covered props in
      check Engine.Bucopt d && check Engine.Tdopt d
      && check Engine.Tdoptall (d && cov))

(* Random documents exercising the SP relaxation: leaves live under their
   pattern parent, under a deeper wrapper, under a sibling, or directly
   under the fact — every placement interacts differently with the
   {}, {PC-AD}, {SP} and {SP, PC-AD} states. *)
let gen_sp_case =
  let open QCheck2.Gen in
  let value = oneofl [ "u"; "v" ] in
  let leaf = map (fun v -> X3_xml.Tree.elem "leaf" [ X3_xml.Tree.text v ]) value in
  let placement =
    oneof
      [
        (* under the pattern parent *)
        map (fun l -> X3_xml.Tree.elem "p" [ l ]) leaf;
        (* under the parent but one level deeper: PC-AD territory *)
        map (fun l -> X3_xml.Tree.elem "p" [ X3_xml.Tree.elem "mid" [ l ] ]) leaf;
        (* parent present, leaf astray under a sibling: SP territory *)
        map2
          (fun l filler ->
            X3_xml.Tree.elem "grp"
              [ X3_xml.Tree.elem "p" [ X3_xml.Tree.text filler ];
                X3_xml.Tree.elem "q" [ l ] ])
          leaf value;
        (* no parent at all: nothing should match, any state *)
        map (fun v -> X3_xml.Tree.elem "q" [ X3_xml.Tree.text v ]) value;
      ]
  in
  let fact = list_size (int_bound 2) placement in
  map
    (fun facts ->
      match
        X3_xml.Tree.elem "db"
          (List.map (fun children -> X3_xml.Tree.elem "r" children) facts)
      with
      | X3_xml.Tree.Element e -> X3_xml.Tree.document e
      | _ -> assert false)
    (list_size (int_range 1 10) fact)

let sp_axes () =
  [|
    X3_pattern.Axis.make_exn ~name:"$l"
      ~steps:[ step c "p"; step c "leaf" ]
      ~allowed:[ Relax.Lnd; Relax.Sp; Relax.Pc_ad ];
  |]

let prop_sp_algorithms_agree =
  QCheck2.Test.make ~name:"correct algorithms agree under SP relaxations"
    ~count:60 gen_sp_case (fun doc ->
      let store = X3_xdb.Store.of_document doc in
      let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(sp_axes ()) in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      let props = X3_lattice.Properties.observe (Engine.table p) (Engine.lattice p) in
      let reference, _ = Engine.run p Engine.Naive in
      List.for_all
        (fun algorithm ->
          let result, _ = Engine.run ~props p algorithm in
          Cube_result.equal ~func:Aggregate.Count reference result)
        correct_algorithms)

let prop_sp_monotone_match_sets =
  QCheck2.Test.make
    ~name:"relaxation only widens cuboid totals (SP lattice)" ~count:60
    gen_sp_case (fun doc ->
      let store = X3_xdb.Store.of_document doc in
      let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(sp_axes ()) in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      let lattice = Engine.lattice p in
      let result, _ = Engine.run p Engine.Naive in
      (* The set of facts reached by a cuboid grows along lattice edges
         within the Present states (coverage may fail, never the reverse:
         a stricter pattern cannot reach more facts). *)
      let total id =
        List.fold_left
          (fun acc (_, cell) ->
            acc + int_of_float (Aggregate.value Aggregate.Count cell))
          0
          (Cube_result.cuboid_cells result id)
      in
      Array.for_all
        (fun id ->
          List.for_all
            (fun parent ->
              let fine = X3_lattice.Lattice.cuboid lattice id in
              let coarse = X3_lattice.Lattice.cuboid lattice parent in
              (* Only compare edges that keep the axis present: removal
                 collapses groups and totals may shrink with dedup. *)
              match (fine.(0), coarse.(0)) with
              | X3_lattice.State.Present _, X3_lattice.State.Present _ ->
                  total id <= total parent
              | _ -> true)
            (X3_lattice.Lattice.parents lattice id))
        (X3_lattice.Lattice.by_degree lattice))

let prop_counter_budget_independent =
  QCheck2.Test.make ~name:"counter result independent of memory budget"
    ~count:40
    QCheck2.Gen.(pair gen_random_case (int_range 1 50))
    (fun (doc, budget) ->
      let store = X3_xdb.Store.of_document doc in
      let spec = Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(random_axes ()) in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      let reference, _ = Engine.run p Engine.Naive in
      let config = { Engine.default_config with counter_budget = budget; sort_budget = 1000 } in
      let result, _ = Engine.run ~config p Engine.Counter in
      Cube_result.equal ~func:Aggregate.Count reference result)

(* Documents in which every fact yields exactly one witness row — at
   most one [a] (direct or wrapped) and at most one [b] per fact — so
   COUNTER takes its no-dedup path on every block. *)
let gen_one_row_case =
  let open QCheck2.Gen in
  let value = oneofl [ "u"; "v"; "w" ] in
  let child tag =
    map (fun v -> X3_xml.Tree.elem tag [ X3_xml.Tree.text v ]) value
  in
  let wrapped tag =
    map
      (fun v ->
        X3_xml.Tree.elem "wrap" [ X3_xml.Tree.elem tag [ X3_xml.Tree.text v ] ])
      value
  in
  let fact =
    map2
      (fun xs ys -> X3_xml.Tree.elem "r" (xs @ ys))
      (list_size (int_bound 1) (oneof [ child "a"; wrapped "a" ]))
      (list_size (int_bound 1) (child "b"))
  in
  map
    (fun facts ->
      match X3_xml.Tree.elem "db" facts with
      | X3_xml.Tree.Element e -> X3_xml.Tree.document e
      | _ -> assert false)
    (list_size (int_range 1 12) fact)

let prop_counter_budget_independent_one_row =
  QCheck2.Test.make
    ~name:"counter result independent of memory budget, one-row blocks"
    ~count:40
    QCheck2.Gen.(pair gen_one_row_case (int_range 1 50))
    (fun (doc, budget) ->
      let store = X3_xdb.Store.of_document doc in
      let spec =
        Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(random_axes ())
      in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      let cols = Witness.columnar_of_table (Engine.table p) in
      let one_row_blocks =
        List.for_all
          (fun b -> Witness.Columnar.block_lo cols b = Witness.Columnar.block_hi cols b)
          (List.init (Witness.Columnar.blocks cols) Fun.id)
      in
      if not one_row_blocks then
        QCheck2.Test.fail_report "a fact block holds more than one row";
      let reference, _ = Engine.run p Engine.Naive in
      let config =
        { Engine.default_config with counter_budget = budget; sort_budget = 1000 }
      in
      let result, _ = Engine.run ~config p Engine.Counter in
      Cube_result.equal ~func:Aggregate.Count reference result
      && Export.csv_string ~func:Aggregate.Count reference
         = Export.csv_string ~func:Aggregate.Count result)

(* --- domain-parallel execution -------------------------------------------- *)

let parallel_algorithms = Engine.[ Naive; Counter; Buc; Buccust; Td; Tdcust ]

let test_parallel_determinism () =
  let p = prepared () in
  let reference =
    Export.csv_string ~func:Aggregate.Count (fst (Engine.run p Engine.Naive))
  in
  List.iter
    (fun algorithm ->
      List.iter
        (fun workers ->
          let result, _ = Engine.run ~workers p algorithm in
          Alcotest.(check string)
            (Printf.sprintf "%s at %d workers = sequential NAIVE"
               (Engine.algorithm_to_string algorithm)
               workers)
            reference
            (Export.csv_string ~func:Aggregate.Count result))
        [ 1; 2; 4 ])
    parallel_algorithms

let test_parallel_counter_tiny_budget () =
  (* A budget that forces several passes, split across workers: eviction
     happens worker-locally, yet the merged cube must not change. *)
  let p = prepared () in
  let reference =
    Export.csv_string ~func:Aggregate.Count (fst (Engine.run p Engine.Naive))
  in
  let config = { Engine.default_config with counter_budget = 3; sort_budget = 1000 } in
  List.iter
    (fun workers ->
      let result, instr = Engine.run ~config ~workers p Engine.Counter in
      Alcotest.(check bool) "several passes" true (instr.Instrument.passes > 1);
      Alcotest.(check string)
        (Printf.sprintf "counter at %d workers, budget 3" workers)
        reference
        (Export.csv_string ~func:Aggregate.Count result))
    [ 2; 4 ]

let test_parallel_resolve () =
  Alcotest.(check bool) "auto resolves to hardware count >= 1" true
    (Parallel.resolve Parallel.auto_workers >= 1);
  Alcotest.(check int) "positive counts pass through" 3 (Parallel.resolve 3)

let prop_parallel_matches_sequential =
  QCheck2.Test.make ~name:"parallel runs byte-identical to sequential"
    ~count:25
    QCheck2.Gen.(pair gen_random_case (int_range 2 5))
    (fun (doc, workers) ->
      let store = X3_xdb.Store.of_document doc in
      let spec =
        Engine.count_spec ~fact_path:[ step d "r" ] ~axes:(random_axes ())
      in
      let p = Engine.prepare ~pool:(small_pool ()) ~store spec in
      List.for_all
        (fun algorithm ->
          let seq =
            Export.csv_string ~func:Aggregate.Count
              (fst (Engine.run p algorithm))
          in
          let par =
            Export.csv_string ~func:Aggregate.Count
              (fst (Engine.run ~workers p algorithm))
          in
          String.equal seq par)
        parallel_algorithms)

(* --- radix vs hash grouping identity --------------------------------------- *)

(* The grouping strategy is an execution detail: for every family, the
   radix kernels (default config) and the hash path (radix_bits = 0) must
   produce byte-identical exports, sequentially and under domain
   parallelism — and the strategy counters must show both paths really
   ran. *)
let check_radix_hash_identity label p =
  let hash_config = { Engine.default_config with Engine.radix_bits = 0 } in
  List.iter
    (fun algorithm ->
      let name = Engine.algorithm_to_string algorithm in
      let reference =
        Export.csv_string ~func:Aggregate.Count
          (fst (Engine.run ~config:hash_config p algorithm))
      in
      List.iter
        (fun (cname, config) ->
          List.iter
            (fun workers ->
              let result, instr = Engine.run ~config ~workers p algorithm in
              (if config.Engine.radix_bits = 0 then
                 Alcotest.(check int)
                   (Printf.sprintf "%s %s/%dw: no radix groupings at bits 0"
                      label name workers)
                   0 instr.Instrument.radix_groupings
               else
                 Alcotest.(check bool)
                   (Printf.sprintf "%s %s/%dw: radix kernels engaged" label
                      name workers)
                   true
                   (instr.Instrument.radix_groupings > 0));
              Alcotest.(check string)
                (Printf.sprintf "%s %s: %s grouping at %d workers" label name
                   cname workers)
                reference
                (Export.csv_string ~func:Aggregate.Count result))
            [ 1; 2 ])
        [ ("radix", Engine.default_config); ("hash", hash_config) ])
    Engine.[ Naive; Counter; Buc; Td ]

let test_radix_hash_identity_figure1 () =
  check_radix_hash_identity "figure1" (prepared ())

let test_radix_hash_identity_treebank () =
  let config =
    { X3_workload.Treebank.default with num_trees = 40; axes = 3 }
  in
  let store =
    X3_xdb.Store.of_document (X3_workload.Treebank.generate config)
  in
  let p =
    Engine.prepare ~pool:(small_pool ()) ~store
      (X3_workload.Treebank.spec config)
  in
  check_radix_hash_identity "treebank" p

(* --- BUC's partition sort ---------------------------------------------------- *)

(* [Radix.partition_sort] against [List.stable_sort] on shuffled row
   indices with random (often repeated) ids: every tier must sort
   ascending and keep equal ids in input order, the counting tier must run
   exactly when its rule says, and [radix_bits = 0] must never count. *)
let test_partition_sort_kernel () =
  let rng = Random.State.make [| 12 |] in
  let cap = 1 lsl Radix.counting_sort_bits_cap in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun n ->
      List.iter
        (fun size ->
          List.iter
            (fun radix_bits ->
              let ids = Array.init n (fun _ -> Random.State.int rng size) in
              let sub = Array.init n Fun.id in
              for i = n - 1 downto 1 do
                let j = Random.State.int rng (i + 1) in
                let t = sub.(i) in
                sub.(i) <- sub.(j);
                sub.(j) <- t
              done;
              let expected =
                List.stable_sort
                  (fun a b -> Int.compare ids.(a) ids.(b))
                  (Array.to_list sub)
              in
              let tier =
                Radix.partition_sort ~radix_bits ~id:(Array.get ids) ~size sub
              in
              Hashtbl.replace seen (radix_bits, tier) ();
              let label = Printf.sprintf "n=%d size=%d bits=%d" n size radix_bits in
              Alcotest.(check (list int))
                (label ^ ": ascending and stable")
                expected (Array.to_list sub);
              Alcotest.(check bool)
                (label ^ ": counting tier by the rule")
                (radix_bits > 0 && n >= 2 && size <= cap && size <= 4 * n)
                (tier = Radix.Counting);
              Alcotest.(check bool)
                (label ^ ": one row or none is not sorted")
                (n <= 1) (tier = Radix.Unsorted))
            [ Radix.default_radix_bits; 0 ])
        [ 1; 2; 5; 64; 1000; cap; cap + 1; 2 * cap + 3 ])
    [ 0; 1; 2; 16; 17; 1000 ];
  List.iter
    (fun tier ->
      Alcotest.(check bool) "every tier exercised" true
        (Hashtbl.mem seen (Radix.default_radix_bits, tier)))
    Radix.[ Unsorted; Counting; Insertion; Merge ]

(* BUC's fact-id dedup compares each row with the last fact counted, which
   is exact only because every partition sort is stable. A non-disjoint
   table (facts repeat on an axis) whose dictionary is over the counting
   cap sends partitions through the comparison tiers; BUC and BUCCUST must
   still match NAIVE byte for byte, on both grouping configs and at 1 and
   2 workers. *)
let test_buc_over_cap_nondisjoint () =
  let config =
    {
      X3_workload.Treebank.default with
      num_trees = 12000;
      axes = 2;
      disjoint = false;
      density = X3_workload.Treebank.Sparse;
    }
  in
  let store =
    X3_xdb.Store.of_document (X3_workload.Treebank.generate config)
  in
  let p =
    Engine.prepare ~pool:(small_pool ()) ~store
      (X3_workload.Treebank.spec config)
  in
  let table = Engine.table p in
  Alcotest.(check bool) "some dictionary is over the counting cap" true
    (Array.exists
       (fun size -> Group_key.bits_for size > Radix.counting_sort_bits_cap)
       (Witness.dict_sizes table));
  Alcotest.(check bool) "facts repeat on an axis" true
    (Witness.row_count table > Witness.fact_count table);
  let csv ?config ~workers algorithm =
    Export.csv_string ~func:Aggregate.Count
      (fst (Engine.run ?config ~workers p algorithm))
  in
  let reference = csv ~workers:1 Engine.Naive in
  let hash_config = { Engine.default_config with Engine.radix_bits = 0 } in
  List.iter
    (fun algorithm ->
      List.iter
        (fun (cname, config) ->
          List.iter
            (fun workers ->
              Alcotest.(check string)
                (Printf.sprintf "%s %s/%dw = NAIVE"
                   (Engine.algorithm_to_string algorithm)
                   cname workers)
                reference
                (csv ~config ~workers algorithm))
            [ 1; 2 ])
        [ ("default", Engine.default_config); ("radix_bits 0", hash_config) ])
    Engine.[ Buc; Buccust ]

(* --- the group table --------------------------------------------------------- *)

(* Key [i] of a [w]-word model: injective in [i], all zeros at [i = 0],
   and for [w >= 2] pairs of keys share word 0 and differ in word 1. *)
let model_key ~w i =
  Array.init w (fun j ->
      match j with
      | 0 -> (if w = 1 then i else i / 2) * 0x9E3779B97F4A7 land ((1 lsl 62) - 1)
      | 1 -> i mod 2
      | j -> i * (2 * j + 1) land ((1 lsl 62) - 1))

(* Every distinct key inserted once, then [facts] — each a few rows'
   key indices (repeats included) and a measure — through [add_marked]
   stamped with the fact's number, against a Stdlib [Hashtbl] model in
   which a fact counts once per group. More than 1,536 distinct keys means
   ten grows (the index doubles from 8 slots at a 3/4 load bound). *)
let prop_group_table_model =
  QCheck2.Test.make ~name:"group table = Hashtbl model (w = 1, 2, 3)"
    ~count:12
    QCheck2.Gen.(
      let* w = int_range 1 3 in
      let* nkeys = int_range 1600 2200 in
      let row = oneof [ int_bound 20; int_bound (nkeys - 1) ] in
      let* facts =
        list_size (int_range 100 400)
          (pair (list_size (int_range 1 4) row)
             (map float_of_int (int_range (-50) 50)))
      in
      return (w, nkeys, facts))
    (fun (w, nkeys, facts) ->
      let tbl = Group_table.create ~words:w in
      let model = Hashtbl.create 64 in
      let ms = [| 0. |] in
      let stamps_agree = ref true in
      let apply k ~mark m =
        let g = Group_table.find_or_add tbl (model_key ~w k) in
        ms.(0) <- m;
        let added = Group_table.add_marked tbl g ~mark ms 0 in
        let n, total, low, high, last =
          Option.value (Hashtbl.find_opt model k)
            ~default:(0, 0., infinity, neg_infinity, -1)
        in
        if last <> mark then
          Hashtbl.replace model k
            (n + 1, total +. m, Float.min low m, Float.max high m, mark);
        if added <> (last <> mark) then stamps_agree := false
      in
      for k = 0 to nkeys - 1 do
        apply k ~mark:0 1.
      done;
      List.iteri
        (fun f (rows, m) -> List.iter (fun k -> apply k ~mark:(f + 1) m) rows)
        facts;
      let groups_match =
        Hashtbl.fold
          (fun k (n, total, low, high, _) ok ->
            let key = model_key ~w k in
            let g = Group_table.find tbl key in
            ok && g >= 0
            && Group_table.key tbl g
               = (if w = 1 then Group_key.Packed key.(0) else Group_key.Wide key)
            && Group_table.value Aggregate.Count tbl g = float_of_int n
            && Group_table.value Aggregate.Sum tbl g = total
            && Group_table.value Aggregate.Min tbl g = low
            && Group_table.value Aggregate.Max tbl g = high)
          model true
      in
      !stamps_agree && groups_match
      && Group_table.length tbl = Hashtbl.length model
      && Group_table.length tbl > 1536
      && Group_table.find tbl (model_key ~w nkeys) = -1)

(* Keys whose probe starts at the last slot of the 8-slot index: the
   second and third wrap around to slots 0 and 1, and every one is still
   found, before and after the table grows past them. *)
let test_group_table_wrap () =
  let tbl = Group_table.create ~words:1 in
  let rec last_slot_keys k acc =
    if List.length acc = 3 then List.rev acc
    else if Group_table.hash tbl [| k |] land 7 = 7 then
      last_slot_keys (k + 1) (k :: acc)
    else last_slot_keys (k + 1) acc
  in
  let keys = last_slot_keys 0 [] in
  List.iteri
    (fun i k ->
      Alcotest.(check int) "dense group numbers" i
        (Group_table.find_or_add_word tbl k))
    keys;
  let found () = List.map (fun k -> Group_table.find tbl [| k |]) keys in
  Alcotest.(check (list int)) "wrapped keys found" [ 0; 1; 2 ] (found ());
  for k = 1_000 to 1_100 do
    ignore (Group_table.find_or_add_word tbl k)
  done;
  Alcotest.(check (list int)) "found after growth" [ 0; 1; 2 ] (found ())

(* What a three-word group occupies, measured with Obj.reachable_words
   over tables caught at different points between two grows: the
   governor's booking covers the middle of that range, and one- and
   two-word groups keep the flat 96 bytes. *)
let test_counter_cost_three_words () =
  let per_group n =
    let tbl = Group_table.create ~words:3 in
    for i = 0 to n - 1 do
      ignore (Group_table.find_or_add tbl (model_key ~w:3 i))
    done;
    float_of_int (Obj.reachable_words (Obj.repr tbl) * (Sys.word_size / 8))
    /. float_of_int n
  in
  let measured =
    List.map per_group
      [ 100; 129; 200; 257; 513; 700; 1_025; 1_500; 3_073; 6_000; 24_577;
        50_000; 98_305; 200_000 ]
  in
  let low = List.fold_left Float.min infinity measured
  and high = List.fold_left Float.max neg_infinity measured in
  let booked = Governor.counter_cost ~words:3 in
  Alcotest.(check bool)
    (Printf.sprintf "3 words: booked %d >= measured midpoint %.1f (%.1f-%.1f)"
       booked ((low +. high) /. 2.) low high)
    true
    (float_of_int booked >= (low +. high) /. 2.);
  Alcotest.(check (list int)) "1 and 2 words stay at 96" [ 96; 96 ]
    [ Governor.counter_cost ~words:1; Governor.counter_cost ~words:2 ]

(* A 7-axis table whose key layout is exactly [bits] wide: six axes of
   300 values (9 bits) and a seventh of 300 (63 bits: it opens a second
   key word) or 200 (62 bits: one word, every bit used). Facts skip and
   repeat values, so neither disjointness nor coverage holds. *)
let boundary_doc ~bits =
  let sizes = Array.init 7 (fun j -> if j = 6 && bits = 62 then 200 else 300) in
  let facts = 320 in
  let buf = Buffer.create (facts * 100) in
  Buffer.add_string buf "<db>";
  for r = 0 to facts - 1 do
    Buffer.add_string buf "<r>";
    Array.iteri
      (fun j n ->
        let v i = Printf.sprintf "<a%d>v%d</a%d>" j (((r * 7) + j + i) mod n) j in
        if (r + (3 * j)) mod 13 <> 5 || r < n then Buffer.add_string buf (v 0);
        if (r + j) mod 9 = 4 then Buffer.add_string buf (v 1))
      sizes;
    Buffer.add_string buf "</r>"
  done;
  Buffer.add_string buf "</db>";
  parse_ok (Buffer.contents buf)

let boundary_spec () =
  let axes =
    Array.init 7 (fun j ->
        X3_pattern.Axis.make_exn ~name:(Printf.sprintf "$a%d" j)
          ~steps:[ step c (Printf.sprintf "a%d" j) ]
          ~allowed:[ Relax.Lnd ])
  in
  Engine.count_spec ~fact_path:[ step d "r" ] ~axes

let boundary_prepared ~bits =
  Engine.prepare ~pool:(small_pool ())
    ~store:(X3_xdb.Store.of_document (boundary_doc ~bits))
    (boundary_spec ())

let test_boundary_layouts () =
  List.iter
    (fun bits ->
      let p = boundary_prepared ~bits in
      let layout = Group_key.layout_of_table (Engine.table p) in
      Alcotest.(check int) (Printf.sprintf "%d-bit layout" bits) bits
        layout.Group_key.total_bits;
      Alcotest.(check int)
        (Printf.sprintf "%d-bit layout words" bits)
        (if bits = 62 then 1 else 2)
        layout.Group_key.words;
      let props = X3_lattice.Properties.observe (Engine.table p) (Engine.lattice p) in
      let disjoint = X3_lattice.Properties.all_disjoint props
      and coverage = X3_lattice.Properties.all_covered props in
      let csv ~config ~workers algorithm =
        Export.csv_string ~func:Aggregate.Count
          (fst (Engine.run ~props ~config ~workers p algorithm))
      in
      let reference = csv ~config:Engine.default_config ~workers:1 Engine.Naive in
      List.iter
        (fun algorithm ->
          if Engine.correct_under algorithm ~disjoint ~coverage then
            List.iter
              (fun (cname, config) ->
                List.iter
                  (fun workers ->
                    Alcotest.(check string)
                      (Printf.sprintf "%d bits: %s %s/%dw = NAIVE" bits
                         (Engine.algorithm_to_string algorithm)
                         cname workers)
                      reference
                      (csv ~config ~workers algorithm))
                  [ 1; 2 ])
              [
                ("default", Engine.default_config);
                ("radix_bits 0", { Engine.default_config with radix_bits = 0 });
              ])
        Engine.all_algorithms)
    [ 62; 63 ]

(* Views on the same two layouts: every cuboid's view holds NAIVE's
   groups with one fact per counted fact. Neither table has a covered
   edge (each fact misses at most one axis, and every axis is missed by
   some fact), so every roll-up is checked against what it must hold
   when facts go missing: along each edge the unchecked roll-up holds
   exactly the coarser view's facts that the finer view has, and the
   checked roll-up is refused — or, were the edge covered, holds the
   coarser view itself. *)
let test_boundary_views () =
  List.iter
    (fun bits ->
      let p = boundary_prepared ~bits in
      let lattice = Engine.lattice p in
      let reference, _ = Engine.run p Engine.Naive in
      let session = Engine.Session.create p in
      let ctx = Engine.Session.context session in
      let props = Engine.Session.props session in
      let views =
        Array.init (X3_lattice.Lattice.size lattice) (fun cuboid ->
            Engine.Session.materialize session ~cuboid)
      in
      let counts view =
        List.map
          (fun (key, cell) -> (key, Aggregate.value Aggregate.Count cell))
          (Materialized.cells view)
      in
      let facts view =
        List.map
          (fun (key, _) -> (key, Materialized.fact_items view ~key))
          (Materialized.cells view)
      in
      let edges = ref 0 in
      Array.iteri
        (fun cid view ->
          let name = Printf.sprintf "%d bits, cuboid %d" bits cid in
          let naive =
            List.map
              (fun (key, cell) -> (key, Aggregate.value Aggregate.Count cell))
              (Cube_result.cuboid_cells reference cid)
          in
          Alcotest.(check (list (pair (list string) (float 0.))))
            (name ^ ": cells = NAIVE") naive (counts view);
          Alcotest.(check (list (pair (list string) (float 0.))))
            (name ^ ": one fact per count") naive
            (List.map
               (fun (key, fs) ->
                 (key, float_of_int (List.length (List.sort_uniq compare fs))))
               (facts view));
          let held = Hashtbl.create 64 in
          List.iter
            (fun (_, fs) -> List.iter (fun f -> Hashtbl.replace held f ()) fs)
            (facts view);
          List.iter
            (fun coarser ->
              incr edges;
              let name = Printf.sprintf "%s -> %d" name coarser in
              let expected =
                List.filter_map
                  (fun (key, fs) ->
                    match List.filter (Hashtbl.mem held) fs with
                    | [] -> None
                    | fs -> Some (key, fs))
                  (facts views.(coarser))
              in
              let rolled = Materialized.rollup_unchecked ctx view ~coarser in
              Alcotest.(check (list (pair (list string) (list int))))
                (name ^ ": rolled facts") expected (facts rolled);
              Alcotest.(check (list (pair (list string) (float 0.))))
                (name ^ ": rolled cells")
                (List.map
                   (fun (key, fs) -> (key, float_of_int (List.length fs)))
                   expected)
                (counts rolled);
              match Materialized.rollup ctx ~props view ~coarser with
              | Ok rolled ->
                  Alcotest.(check bool) (name ^ ": covered") true
                    (X3_lattice.Properties.edge_covered props ~finer:cid
                       ~coarser);
                  Alcotest.(check (list (pair (list string) (list int))))
                    (name ^ ": covered roll-up = view")
                    (facts views.(coarser)) (facts rolled)
              | Error _ ->
                  Alcotest.(check bool) (name ^ ": uncovered") false
                    (X3_lattice.Properties.edge_covered props ~finer:cid
                       ~coarser))
            (X3_lattice.Lattice.parents lattice cid))
        views;
      Alcotest.(check int) (Printf.sprintf "%d bits: edges" bits) (7 * 64)
        !edges)
    [ 62; 63 ]

(* Sequential COUNTER allocates less than one minor word per key built
   on a dense table (at least ten keys per cell), radix tiers on or off:
   counters are unboxed columns, keys are built in a reused scratch, and
   no float crosses a call boxed. *)
let test_counter_allocation_guard () =
  let p =
    treebank_prepared
      {
        X3_workload.Treebank.default with
        num_trees = 4000;
        density = X3_workload.Treebank.Dense;
        coverage = false;
        disjoint = false;
      }
  in
  List.iter
    (fun (name, config) ->
      let ctx = Engine.Session.context (Engine.Session.create ~config p) in
      ignore (Context.block_measures ctx (Context.cols ctx));
      let keys0 = ctx.Context.instr.Instrument.keys_built in
      let w0 = Gc.minor_words () in
      let result = Counter.compute ctx in
      let words = Gc.minor_words () -. w0 in
      let keys = ctx.Context.instr.Instrument.keys_built - keys0 in
      let cells = Cube_result.total_cells result in
      Alcotest.(check bool)
        (Printf.sprintf "%s: dense (%d keys, %d cells)" name keys cells)
        true
        (keys >= 10 * cells);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f minor words < %d keys" name words keys)
        true
        (words < float_of_int keys))
    [
      ("default", Engine.default_config);
      ("radix_bits 0", { Engine.default_config with radix_bits = 0 });
    ]

(* --- resource governor (PR 4) --------------------------------------------- *)

let csv result = Export.csv_string ~func:Aggregate.Count result

(* Eviction victim selection at the record-budget boundary: budget 1 makes
   every block boundary an eviction storm, yet the keep-at-least-one rule
   guarantees each pass completes something and the cube is unchanged. *)
let test_counter_eviction_budget_one () =
  let p = prepared () in
  let reference = csv (fst (Engine.run p Engine.Naive)) in
  let config = { Engine.default_config with counter_budget = 1; sort_budget = 1000 } in
  let result, instr = Engine.run ~config p Engine.Counter in
  Alcotest.(check string) "budget 1 still correct" reference (csv result);
  Alcotest.(check bool) "eviction forced extra passes" true
    (instr.Instrument.passes > 1);
  Alcotest.(check bool) "every pass completed at least one cuboid" true
    (instr.Instrument.passes <= X3_lattice.Lattice.size (Engine.lattice p))

let test_counter_single_cuboid_keep_rule () =
  (* One axis, no relaxations: a single-cuboid lattice. Its counters exceed
     the budget but it can never be evicted — the run must complete in one
     pass rather than loop or stop. *)
  let axes =
    [| Axis.make_exn ~name:"$y" ~steps:[ step c "year" ] ~allowed:[] |]
  in
  let p =
    Engine.prepare ~pool:(small_pool ()) ~store:(figure1_store ())
      (Engine.count_spec ~fact_path ~axes)
  in
  let reference = csv (fst (Engine.run p Engine.Naive)) in
  let config = { Engine.default_config with counter_budget = 1; sort_budget = 1000 } in
  let result, instr = Engine.run ~config p Engine.Counter in
  Alcotest.(check string) "correct" reference (csv result);
  Alcotest.(check int) "single pass" 1 instr.Instrument.passes;
  Alcotest.(check bool) "the budget really was exceeded" true
    (instr.Instrument.peak_counters > 1)

let test_counter_eviction_tie_deterministic () =
  (* Query 1 produces several equally-fat cuboids, so victim selection hits
     ties; the choice must be deterministic run to run. *)
  let p = prepared () in
  let reference = csv (fst (Engine.run p Engine.Naive)) in
  let config = { Engine.default_config with counter_budget = 2; sort_budget = 1000 } in
  let r1, i1 = Engine.run ~config p Engine.Counter in
  let r2, i2 = Engine.run ~config p Engine.Counter in
  Alcotest.(check bool) "ties forced multiple passes" true
    (i1.Instrument.passes > 1);
  Alcotest.(check string) "correct under ties" reference (csv r1);
  Alcotest.(check string) "victim choice deterministic" (csv r1) (csv r2);
  Alcotest.(check int) "same pass count" i1.Instrument.passes
    i2.Instrument.passes

(* The acceptance boundary of the byte governor: binary-search the minimal
   completing budget. At that budget the run completes through the spill
   paths byte-identical to the unbudgeted cube; one byte below, it returns
   the typed Over_budget partial. *)
let check_spill_boundary ~name ~prepared:p algorithm workers =
  let reference, _ = Engine.run ~workers p algorithm in
  let ref_csv = csv reference in
  let gov = Governor.create () in
  (match Engine.run_safe ~workers ~governor:gov p algorithm with
  | Engine.Complete (r, _) ->
      Alcotest.(check string)
        (name ^ ": governed run on an unlimited pool is byte-identical")
        ref_csv (csv r)
  | _ -> Alcotest.failf "%s: unlimited governed run must complete" name);
  let completes b =
    match Engine.run_safe ~workers ~max_bytes:b p algorithm with
    | Engine.Complete (r, _) -> Some r
    | Engine.Partial (Context.Over_budget, partial, _) ->
        Alcotest.(check bool)
          (name ^ ": partial never exceeds the full cube")
          true
          (Cube_result.total_cells partial <= Cube_result.total_cells reference);
        None
    | _ -> Alcotest.failf "%s: unexpected outcome under a byte budget" name
  in
  (match completes 0 with
  | None -> ()
  | Some _ -> Alcotest.failf "%s: a zero budget must stop the run" name);
  (* The pool peak of the unlimited run bounds the search from above (with
     doubling slack: a capped account can shift reservation order). *)
  let hi = ref (max 1 (Governor.peak gov)) in
  let rec settle_hi tries =
    match completes !hi with
    | Some _ -> ()
    | None when tries > 0 ->
        hi := !hi * 2;
        settle_hi (tries - 1)
    | None ->
        Alcotest.failf "%s: %d bytes (above the measured peak) still over"
          name !hi
  in
  settle_hi 4;
  let lo = ref 0 in
  while !hi - !lo > 1 do
    let mid = !lo + ((!hi - !lo) / 2) in
    match completes mid with Some _ -> hi := mid | None -> lo := mid
  done;
  (match completes !hi with
  | Some r ->
      Alcotest.(check string)
        (Printf.sprintf "%s: minimal budget (%d bytes) byte-identical" name
           !hi)
        ref_csv (csv r)
  | None -> Alcotest.failf "%s: the boundary budget must complete" name);
  match Engine.run_safe ~workers ~max_bytes:!lo p algorithm with
  | Engine.Partial (Context.Over_budget, _, _) -> ()
  | _ ->
      Alcotest.failf "%s: %d bytes (below the floor) must be Over_budget"
        name !lo

let spill_algorithms = Engine.[ Counter; Td ]

let test_governed_spill_figure1 () =
  let p = prepared () in
  List.iter
    (fun algorithm ->
      List.iter
        (fun workers ->
          check_spill_boundary
            ~name:
              (Printf.sprintf "%s/%dw"
                 (Engine.algorithm_to_string algorithm)
                 workers)
            ~prepared:p algorithm workers)
        [ 1; 2 ])
    spill_algorithms

let test_governed_spill_treebank () =
  (* Enough rows that the squeezed budget genuinely drives the spill
     machinery: TD's sort allowance drops toward its 64-record floor and
     parallel COUNTER's byte-derived pass budget forces eviction. *)
  let config = { X3_workload.Treebank.default with num_trees = 30; axes = 2 } in
  let store = X3_xdb.Store.of_document (X3_workload.Treebank.generate config) in
  let p =
    Engine.prepare ~pool:(small_pool ()) ~store
      (X3_workload.Treebank.spec config)
  in
  List.iter
    (fun algorithm ->
      List.iter
        (fun workers ->
          check_spill_boundary
            ~name:
              (Printf.sprintf "treebank %s/%dw"
                 (Engine.algorithm_to_string algorithm)
                 workers)
            ~prepared:p algorithm workers)
        [ 1; 2 ])
    spill_algorithms

let test_over_budget_below_witness () =
  (* 64 bytes cannot even hold the witness table: every algorithm family
     must stop at its first check with the typed reason, at any worker
     count. *)
  let p = prepared () in
  List.iter
    (fun algorithm ->
      List.iter
        (fun workers ->
          match Engine.run_safe ~workers ~max_bytes:64 p algorithm with
          | Engine.Partial (Context.Over_budget, _, _) -> ()
          | _ ->
              Alcotest.failf "%s/%d workers: expected Over_budget partial"
                (Engine.algorithm_to_string algorithm)
                workers)
        [ 1; 2 ])
    Engine.[ Naive; Counter; Buc; Td ]

let test_governor_pool_drained () =
  (* Accounts are per-attempt and closed on every exit path, so the shared
     pool returns to zero after complete and over-budget runs alike. *)
  let p = prepared () in
  let gov = Governor.create ~max_bytes:(1 lsl 30) () in
  (match Engine.run_safe ~governor:gov p Engine.Counter with
  | Engine.Complete _ -> ()
  | _ -> Alcotest.fail "expected completion under a roomy pool");
  Alcotest.(check int) "pool drained after completion" 0 (Governor.used gov);
  (match Engine.run_safe ~governor:gov ~max_bytes:64 p Engine.Td with
  | Engine.Partial (Context.Over_budget, _, _) -> ()
  | _ -> Alcotest.fail "expected Over_budget under a 64-byte cap");
  Alcotest.(check int) "pool drained after a stopped run" 0
    (Governor.used gov);
  Alcotest.(check bool) "the pool saw real traffic" true
    (Governor.peak gov > 0)

(* --- ingest deltas ------------------------------------------------------- *)

module Tree = X3_xml.Tree

(* Cold reference for an ingest: the grafted document rebuilt from
   scratch. The delta path must be byte-identical to it. *)
let graft doc frags =
  let root = doc.Tree.root in
  {
    doc with
    Tree.root =
      {
        root with
        Tree.children =
          root.Tree.children @ List.map (fun el -> Tree.Element el) frags;
      };
  }

let frag_of_source src = (parse_ok src).Tree.root

let delta_vs_cold ~name ~doc ~frags ~spec =
  (* Delta path: a session over the base document, every cuboid
     materialised, each fragment staged and applied cell-by-cell. *)
  let session =
    Engine.Session.create
      (Engine.prepare ~pool:(small_pool ())
         ~store:(X3_xdb.Store.of_document doc)
         spec)
  in
  let lattice = Engine.lattice (Engine.Session.prepared session) in
  let views =
    List.init (X3_lattice.Lattice.size lattice) (fun c ->
        Engine.Session.materialize session ~cuboid:c)
  in
  List.iteri
    (fun i fragment ->
      match
        Engine.stage_fragment spec ~fragment
          ~fact_id:(Engine.synthetic_fact_id ~lsn:(i + 1))
      with
      | Engine.Not_a_fact ->
          Alcotest.failf "%s: fragment %d is not a fact" name i
      | Engine.Unsupported reason ->
          Alcotest.failf "%s: fragment %d unsupported: %s" name i reason
      | Engine.Staged staged -> (
          match Engine.Session.apply_delta session staged ~views with
          | Ok _ -> ()
          | Error fb ->
              Alcotest.failf "%s: fragment %d refused: %s" name i
                (Engine.fallback_reason_name fb)))
    frags;
  let delta_csv =
    Export.csv_string ~func:spec.Engine.func
      (Engine.Session.result_of_views session views)
  in
  (* Cold reference: a full rebuild of the grafted document, across the
     four algorithm families and both worker counts. *)
  let cold_prepared =
    Engine.prepare ~pool:(small_pool ())
      ~store:(X3_xdb.Store.of_document (graft doc frags))
      spec
  in
  List.iter
    (fun alg ->
      List.iter
        (fun workers ->
          let cold, _ = Engine.run ~workers cold_prepared alg in
          Alcotest.(check string)
            (Printf.sprintf "%s: delta == cold rebuild (%s, %d workers)" name
               (Engine.algorithm_to_string alg)
               workers)
            (Export.csv_string ~func:spec.Engine.func cold)
            delta_csv)
        [ 1; 2 ])
    Engine.[ Naive; Counter; Buc; Td ];
  (* The refreshed properties must equal a cold re-observe — they gate
     future rollup decisions, so drift here silently unsounds the cache. *)
  let report props =
    Format.asprintf "%a" (X3_lattice.Properties.pp_report lattice) props
  in
  Alcotest.(check string)
    (name ^ ": restricted properties == cold re-observe")
    (report (Engine.Session.props (Engine.Session.create cold_prepared)))
    (report (Engine.Session.props session))

let pub5 =
  {|<publication id="5">
      <author id="a1"><name>John</name></author>
      <publisher id="p2"/>
      <year>2003</year>
    </publication>|}

(* Year 2006 is a fresh dictionary value that still fits the frozen
   packed-key width (3 committed years, 2 bits): the delta path must
   dictionary-code it in place. *)
let pub6 =
  {|<publication id="6">
      <author id="a2"><name>Jane</name></author>
      <publisher id="p1"/>
      <year>2006</year>
    </publication>|}

let test_delta_identity_figure1 () =
  delta_vs_cold ~name:"figure-1" ~doc:(figure1 ())
    ~frags:[ frag_of_source pub5; frag_of_source pub6 ]
    ~spec:(Engine.count_spec ~fact_path ~axes:(query1_axes ()))

let test_delta_identity_treebank () =
  (* coverage and disjointness both off: repeats, missing bindings and
     nested dimensions all flow through the delta path. *)
  let config =
    {
      X3_workload.Treebank.default with
      num_trees = 120;
      axes = 3;
      coverage = false;
      disjoint = false;
      seed = 11;
    }
  in
  let doc = X3_workload.Treebank.generate config in
  let frags =
    List.filteri
      (fun i _ -> i < 6)
      (List.filter_map Tree.element_of_node doc.Tree.root.Tree.children)
  in
  Alcotest.(check int) "six fragments" 6 (List.length frags);
  delta_vs_cold ~name:"treebank" ~doc ~frags
    ~spec:(X3_workload.Treebank.spec config)

(* Ingest on the two-word layout: clones of the table's own facts (every
   value already in its dictionary) applied to every view equal a cold
   rebuild of the grafted document. *)
let test_boundary_delta () =
  let doc = boundary_doc ~bits:63 in
  let frags =
    List.filteri
      (fun i _ -> i < 4)
      (List.filter_map X3_xml.Tree.element_of_node doc.X3_xml.Tree.root.X3_xml.Tree.children)
  in
  delta_vs_cold ~name:"63 bits" ~doc ~frags ~spec:(boundary_spec ())

let test_delta_layout_overflow_refused () =
  let spec = Engine.count_spec ~fact_path ~axes:(query1_axes ()) in
  let session =
    Engine.Session.create
      (Engine.prepare ~pool:(small_pool ()) ~store:(figure1_store ()) spec)
  in
  let prepared = Engine.Session.prepared session in
  let rows_before = Witness.row_count (Engine.table prepared) in
  let view =
    Engine.Session.materialize session
      ~cuboid:(X3_lattice.Lattice.rigid_id (Engine.lattice prepared))
  in
  let cells_before = Materialized.group_count view in
  (* Four committed author names fill 2 bits exactly: a fifth cannot be
     coded into the frozen layout, so the delta must refuse — and leave
     everything untouched for the caller's cold rebuild. *)
  let frag =
    frag_of_source
      {|<publication id="7">
          <author id="a9"><name>Zoe</name></author>
          <publisher id="p1"/>
          <year>2003</year>
        </publication>|}
  in
  match
    Engine.stage_fragment spec ~fragment:frag
      ~fact_id:(Engine.synthetic_fact_id ~lsn:1)
  with
  | Engine.Staged staged -> (
      match Engine.Session.apply_delta session staged ~views:[ view ] with
      | Error (Engine.Layout_overflow _) ->
          Alcotest.(check int) "table untouched by the refused delta"
            rows_before
            (Witness.row_count (Engine.table prepared));
          Alcotest.(check int) "view untouched by the refused delta"
            cells_before
            (Materialized.group_count view)
      | Ok _ -> Alcotest.fail "a full author dictionary cannot be sound"
      | Error fb ->
          Alcotest.failf "wrong fallback: %s" (Engine.fallback_reason_name fb))
  | _ -> Alcotest.fail "fragment should stage"

(* A view restored from its records on a session that has not built its
   columns yet: the delta builds them first, and a stop during that build
   refuses the delta with the table and the view untouched. *)
let test_delta_stopped_column_build () =
  let config = { X3_workload.Treebank.default with num_trees = 200 } in
  let doc = X3_workload.Treebank.generate config in
  let spec = X3_workload.Treebank.spec config in
  let prepare () =
    Engine.prepare ~pool:(small_pool ())
      ~store:(X3_xdb.Store.of_document doc) spec
  in
  let records =
    Materialized.to_records
      (Engine.Session.materialize (Engine.Session.create (prepare ()))
         ~cuboid:0)
  in
  let session = Engine.Session.create (prepare ()) in
  let ctx = Engine.Session.context session in
  let view = Result.get_ok (Materialized.of_records ctx records) in
  let table = Engine.table (Engine.Session.prepared session) in
  let rows_before = Witness.row_count table
  and groups_before = Materialized.group_count view in
  Context.set_cancel_hook ctx (fun () -> true);
  let fragment =
    List.find_map Tree.element_of_node doc.Tree.root.Tree.children
    |> Option.get
  in
  match
    Engine.stage_fragment spec ~fragment
      ~fact_id:(Engine.synthetic_fact_id ~lsn:1)
  with
  | Engine.Staged staged -> (
      match Engine.Session.apply_delta session staged ~views:[ view ] with
      | Error (Engine.Stopped Context.Cancelled) ->
          Alcotest.(check int) "table untouched" rows_before
            (Witness.row_count table);
          Alcotest.(check int) "view untouched" groups_before
            (Materialized.group_count view)
      | Ok _ -> Alcotest.fail "the cancel hook must stop the column build"
      | Error fb ->
          Alcotest.failf "wrong fallback: %s" (Engine.fallback_reason_name fb))
  | _ -> Alcotest.fail "fragment should stage"

(* Ingests grow the session's columns in place while their arrays have
   room and double them when not; the account holds exactly the room the
   arrays have, whichever happened. *)
let test_delta_books_column_room () =
  let config = { X3_workload.Treebank.default with num_trees = 200 } in
  let doc = X3_workload.Treebank.generate config in
  let spec = X3_workload.Treebank.spec config in
  let account = Governor.open_account ~max_bytes:(1 lsl 40) None in
  let session =
    Engine.Session.create ~account
      (Engine.prepare ~pool:(small_pool ())
         ~store:(X3_xdb.Store.of_document doc) spec)
  in
  let ctx = Engine.Session.context session in
  let table_bytes = Governor.account_used account in
  let view = Engine.Session.materialize session ~cuboid:0 in
  let booked () = Governor.account_used account - table_bytes in
  let room () = Witness.Columnar.resident_bytes (Context.cols ctx) in
  Alcotest.(check int) "built" (room ()) (booked ());
  List.iteri
    (fun i fragment ->
      match
        Engine.stage_fragment spec ~fragment
          ~fact_id:(Engine.synthetic_fact_id ~lsn:(i + 1))
      with
      | Engine.Staged staged -> (
          match Engine.Session.apply_delta session staged ~views:[ view ] with
          | Ok _ ->
              Alcotest.(check int)
                (Printf.sprintf "after ingest %d" (i + 1))
                (room ()) (booked ())
          | Error fb ->
              Alcotest.failf "refused: %s" (Engine.fallback_reason_name fb))
      | _ -> Alcotest.fail "fragment should stage")
    (List.filteri
       (fun i _ -> i < 5)
       (List.filter_map Tree.element_of_node doc.Tree.root.Tree.children))

let test_stage_fragment_classification () =
  let spec = Engine.count_spec ~fact_path ~axes:(query1_axes ()) in
  (match
     Engine.stage_fragment spec
       ~fragment:
         (frag_of_source {|<author id="a9"><name>Zoe</name></author>|})
       ~fact_id:1
   with
  | Engine.Not_a_fact -> ()
  | _ -> Alcotest.fail "a non-fact fragment must classify Not_a_fact");
  match
    Engine.stage_fragment spec
      ~fragment:
        (frag_of_source
           {|<publication id="8">
               <publication id="9"><year>2003</year></publication>
             </publication>|})
      ~fact_id:1
  with
  | Engine.Unsupported _ -> ()
  | _ ->
      Alcotest.fail
        "a fragment nesting further facts must be refused (descendant path)"

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "x3_core"
    [
      ( "aggregate",
        [
          Alcotest.test_case "values" `Quick test_aggregate_values;
          Alcotest.test_case "merge" `Quick test_aggregate_merge;
          Alcotest.test_case "empty" `Quick test_aggregate_empty;
        ] );
      ( "group key",
        [
          Alcotest.test_case "roundtrip" `Quick test_key_roundtrip;
          Alcotest.test_case "injective" `Quick test_key_injective;
        ] );
      ( "group table",
        [
          Alcotest.test_case "probe wrap-around" `Quick test_group_table_wrap;
          Alcotest.test_case "62/63-bit layouts, every family = NAIVE" `Quick
            test_boundary_layouts;
          Alcotest.test_case "COUNTER allocates < 1 word per key" `Quick
            test_counter_allocation_guard;
        ]
        @ qcheck [ prop_group_table_model ]
        @ [
            Alcotest.test_case
              "62/63-bit layouts, views = NAIVE, roll-ups exact" `Quick
              test_boundary_views;
            Alcotest.test_case "63-bit layout, ingest delta = cold rebuild"
              `Quick test_boundary_delta;
            Alcotest.test_case
              "three-word counter booking covers the midpoint" `Quick
              test_counter_cost_three_words;
          ] );
      ( "sort record",
        [
          Alcotest.test_case "roundtrip" `Quick test_sort_record_roundtrip;
          Alcotest.test_case "grouping order" `Quick
            test_sort_record_groups_adjacent;
        ] );
      ( "figure 1 semantics",
        [
          Alcotest.test_case "group by year" `Quick test_naive_group_by_year;
          Alcotest.test_case "publisher-year disjointness" `Quick
            test_naive_publisher_year_disjointness;
          Alcotest.test_case "ALL group" `Quick test_naive_all_group;
          Alcotest.test_case "relaxation widens groups" `Quick
            test_naive_author_relaxation_widens;
          Alcotest.test_case "rigid cuboid" `Quick test_naive_rigid_cuboid;
        ] );
      ( "algorithms",
        [
          Alcotest.test_case "correct family agrees" `Quick
            test_correct_algorithms_agree;
          Alcotest.test_case "optimised wrong on figure 1" `Quick
            test_optimised_algorithms_wrong_on_figure1;
          Alcotest.test_case "all agree on clean data" `Quick
            test_all_algorithms_agree_on_clean_data;
          Alcotest.test_case "counter multipass" `Quick test_counter_multipass;
          Alcotest.test_case "td external sort" `Quick test_td_external_sort;
          Alcotest.test_case "instrumentation" `Quick
            test_instrumentation_sanity;
          Alcotest.test_case "sum measure" `Quick test_sum_measure;
        ] );
      ( "where filters",
        [
          Alcotest.test_case "filter_holds edge cases" `Quick
            test_filter_holds_edge_cases;
          Alcotest.test_case "filters prune facts at prepare" `Quick
            test_filter_prunes_facts;
        ] );
      ( "extended coverage",
        [
          Alcotest.test_case "all aggregates x all algorithms" `Quick
            test_all_aggregates_all_algorithms;
          Alcotest.test_case "aggregate values" `Quick
            test_aggregate_expected_values;
          Alcotest.test_case "non-LND axis" `Quick test_non_lnd_axis;
          Alcotest.test_case "correct_under table" `Quick test_correct_under;
          Alcotest.test_case "counter budget 1" `Quick test_counter_budget_one;
          Alcotest.test_case "key projection" `Quick test_key_projection;
          Alcotest.test_case "long values rejected, not corrupted" `Quick
            test_long_value_rejected_not_corrupted;
          Alcotest.test_case "a 64 KiB axis value exports" `Quick
            test_long_value_exports;
          Alcotest.test_case "export order is the u16-encoding order" `Quick
            test_export_order_golden;
          Alcotest.test_case "u16 export order over two axes" `Quick
            test_export_order_two_axes;
          Alcotest.test_case "u16 export order on a wide layout" `Quick
            test_export_order_wide;
          Alcotest.test_case "coded path = legacy string grouping" `Quick
            test_coded_path_matches_legacy_grouping;
          Alcotest.test_case "file-backed external sorts" `Quick
            test_td_with_file_backed_disk;
        ] );
      ( "materialized (§3.6)",
        [
          Alcotest.test_case "matches naive" `Quick
            test_materialize_matches_naive;
          Alcotest.test_case "fact items" `Quick test_materialized_fact_items;
          Alcotest.test_case "rollup dedups via fact sets" `Quick
            test_materialized_rollup_dedups;
          Alcotest.test_case "rollup refuses uncovered" `Quick
            test_materialized_rollup_refuses_uncovered;
          Alcotest.test_case "rollup rejects non-relaxation" `Quick
            test_materialized_rollup_rejects_non_relaxation;
          Alcotest.test_case "approx_bytes pinned on figure 1" `Quick
            test_materialized_approx_bytes_pinned;
          Alcotest.test_case "stopped column build releases its booking"
            `Quick test_cols_stop_releases_booking;
        ] );
      ( "ingest deltas",
        [
          Alcotest.test_case "figure-1: delta == cold rebuild, 4 families x 2 \
                              worker counts" `Quick test_delta_identity_figure1;
          Alcotest.test_case "treebank: delta == cold rebuild, 4 families x 2 \
                              worker counts" `Quick test_delta_identity_treebank;
          Alcotest.test_case "layout overflow refused, nothing mutated" `Quick
            test_delta_layout_overflow_refused;
          Alcotest.test_case "fragment classification" `Quick
            test_stage_fragment_classification;
          Alcotest.test_case "ingests book the columns' room" `Quick
            test_delta_books_column_room;
          Alcotest.test_case "stopped column build refused, nothing mutated"
            `Quick test_delta_stopped_column_build;
        ] );
      ( "export",
        [
          Alcotest.test_case "csv" `Quick test_export_csv;
          Alcotest.test_case "csv quoting" `Quick test_export_csv_quoting;
          Alcotest.test_case "json shape" `Quick test_export_json_shape;
          Alcotest.test_case "golden digests, 4 families x 1/2 workers" `Quick
            test_export_golden_digests;
          Alcotest.test_case "counter hand-off invisible in the csv" `Quick
            test_counter_handoff_export;
          Alcotest.test_case "integral values print as Printf did" `Quick
            test_number_formatting;
        ] );
      ( "pivot",
        [
          Alcotest.test_case "figure 1 cross-tab" `Quick test_pivot_figure1;
          Alcotest.test_case "rejects same axis" `Quick
            test_pivot_rejects_same_axis;
          Alcotest.test_case "marginals" `Quick test_pivot_marginals_consistent;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "1/2/4 workers = sequential" `Quick
            test_parallel_determinism;
          Alcotest.test_case "counter under worker-split budget" `Quick
            test_parallel_counter_tiny_budget;
          Alcotest.test_case "worker resolution" `Quick test_parallel_resolve;
        ] );
      ( "radix grouping",
        [
          Alcotest.test_case "radix = hash on figure 1" `Quick
            test_radix_hash_identity_figure1;
          Alcotest.test_case "radix = hash on treebank" `Quick
            test_radix_hash_identity_treebank;
          Alcotest.test_case "partition sort tiers: sorted and stable" `Quick
            test_partition_sort_kernel;
          Alcotest.test_case "BUC over the counting cap, non-disjoint" `Quick
            test_buc_over_cap_nondisjoint;
        ] );
      ( "governor",
        [
          Alcotest.test_case "counter eviction at budget 1" `Quick
            test_counter_eviction_budget_one;
          Alcotest.test_case "single cuboid survives eviction" `Quick
            test_counter_single_cuboid_keep_rule;
          Alcotest.test_case "tie-broken eviction is deterministic" `Quick
            test_counter_eviction_tie_deterministic;
          Alcotest.test_case "spill boundary (figure 1)" `Quick
            test_governed_spill_figure1;
          Alcotest.test_case "spill boundary (treebank)" `Quick
            test_governed_spill_treebank;
          Alcotest.test_case "budget below the witness table" `Quick
            test_over_budget_below_witness;
          Alcotest.test_case "pool drains on every exit path" `Quick
            test_governor_pool_drained;
        ] );
      ( "randomised",
        qcheck
          [
            prop_merge_associative;
            prop_key_roundtrip;
            prop_packed_key_roundtrip;
            prop_packed_key_project;
            prop_algorithms_agree;
            prop_optimised_correct_when_licensed;
            prop_counter_budget_independent;
            prop_counter_budget_independent_one_row;
            prop_parallel_matches_sequential;
            prop_sp_algorithms_agree;
            prop_sp_monotone_match_sets;
          ] );
    ]

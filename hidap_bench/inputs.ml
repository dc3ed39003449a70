(* Workload inputs, all derived from the workload seed [ws].

   The program only ever sees the generated HNL text: set-up writes one
   .hnl file per design, and the timed part reads and parses it. With
   [ws = 0] the suite circuits are exactly today's c1'..c8'. *)

type design = {
  name : string;
  path : string;  (** HNL file written by [write] *)
  params : Circuitgen.Gen.params;
}

(* Placement seed of every workload: the default config seed, offset. *)
let place_seed ws = Hidap.Config.default.Hidap.Config.seed + ws

let suite_params ws =
  List.map
    (fun (c : Circuitgen.Suite.circuit) ->
      let p = c.Circuitgen.Suite.params in
      { p with Circuitgen.Gen.seed = p.Circuitgen.Gen.seed + ws })
    (Circuitgen.Suite.c_suite ())

(* Tiny daemon jobs: 4-8 macros and 500-2000 cells. Sizes are
   stratified (every run has the same multiset of sizes, in a seeded
   order) so that the latency distribution does not depend on which
   seed drew a few large designs. *)
let serve_params ws ~n =
  let rng = Util.Rng.create (0x5e7e + ws) in
  let macros = Array.init n (fun i -> 4 + (i mod 5)) in
  let cells = Array.init n (fun i -> 500 + (1500 * i / max 1 (n - 1))) in
  Util.Rng.shuffle rng macros;
  Util.Rng.shuffle rng cells;
  List.init n (fun i ->
      { Circuitgen.Gen.default with
        Circuitgen.Gen.name = Printf.sprintf "s%03d" i;
        seed = (ws * 7919) + i + 1;
        n_macros = macros.(i);
        target_cells = cells.(i) })

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Generate every design and write its HNL under [dir]. *)
let write ~dir params =
  List.map
    (fun (p : Circuitgen.Gen.params) ->
      let path = Filename.concat dir (p.Circuitgen.Gen.name ^ ".hnl") in
      write_file path (Hnl.Printer.to_string (Circuitgen.Gen.generate p));
      { name = p.Circuitgen.Gen.name; path; params = p })
    params

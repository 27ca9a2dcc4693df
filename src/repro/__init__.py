"""repro: a Python reproduction of "TAO: Techniques for Algorithm-Level
Obfuscation during High-Level Synthesis" (Pilato, Regazzoni, Karri,
Garg — DAC 2018).

The package is a complete mini-HLS system plus the paper's obfuscation
passes:

* ``repro.frontend`` — C-subset lexer/parser/semantics and IR lowering;
* ``repro.ir`` — three-address IR, CFG/DFG/call-graph analyses;
* ``repro.opt`` — compiler optimization pipeline and inlining;
* ``repro.hls`` — scheduling, binding, controller synthesis, FSMD model;
* ``repro.rtl`` — Verilog emission, structural area/timing models;
* ``repro.sim`` — golden IR interpreter and cycle-accurate FSMD simulator;
* ``repro.crypto`` — FIPS-197 AES for key management;
* ``repro.tao`` — the paper's contribution: key apportionment, constant
  obfuscation, branch masking, DFG variants, key management, metrics;
* ``repro.benchsuite`` — the five Table-1 benchmarks;
* ``repro.runtime`` — the campaign service that runs the evaluation;
* ``repro.evaluation`` — renderers for every table and figure, read
  from one campaign document.

Quickstart::

    from repro.tao import TaoFlow
    from repro.sim import Testbench, run_testbench

    source = '''
    int scale(int x, int data[4], int out[4]) {
      for (int i = 0; i < 4; i++) out[i] = data[i] * 7 + x;
      return x;
    }
    '''
    component = TaoFlow().obfuscate(source, "scale")
    bench = Testbench(args=[3], arrays={"data": [1, 2, 3, 4]})
    good = run_testbench(component.design, bench,
                         working_key=component.correct_working_key)
    assert good.matches  # correct key unlocks the design
"""

__version__ = "1.0.0"

__all__ = ["__version__"]

#!/usr/bin/env python3
"""Crossbar playground: the paper's Figure 7 walked through by hand.

Drives the *array-level* models directly — a real ternary CAM search
producing a hit vector, and a real selective analog MAC over the
enabled rows, first in exact float mode and then through the honest
quantized pipeline (2-bit cells, bit-serial inputs, 6-bit ADC).

Run:  python examples/crossbar_playground.py
"""

import numpy as np

from repro.obs.hw import HwMonitor
from repro.xbar import EdgeCam, FixedPointFormat, MacCrossbar

# Figure 7(a): (src, dst, weight) triples of the example graph.
EDGES = [
    (1, 2, 6.0), (3, 2, 5.0), (4, 2, 8.0), (1, 3, 4.0),
    (5, 3, 6.0), (2, 4, 4.0), (3, 4, 2.0), (5, 4, 7.0),
]


def main() -> None:
    board = HwMonitor()  # per-array counter board the pair charges
    src = np.array([e[0] for e in EDGES])
    dst = np.array([e[1] for e in EDGES])
    weights = np.array([e[2] for e in EDGES])

    print("Loading Figure 7's edges into a CAM/MAC crossbar pair...")
    cam = EdgeCam(rows=16, vertex_bits=8, hw=board)
    cam.load_edges(src, dst)
    mac = MacCrossbar(rows=16, cols=2, hw=board)
    mac.write(np.arange(len(EDGES)), np.zeros(len(EDGES), dtype=int), weights)

    print("\nKernel: sum the weights of all edges arriving at vertex 2.")
    hits = cam.search_dst(2)
    print(f"  CAM hit vector: {hits[:len(EDGES)].astype(int)}")
    print(f"  (rows {list(np.flatnonzero(hits))} -> edges "
          f"{[EDGES[i][:2] for i in np.flatnonzero(hits)]})")

    total = mac.mac(np.ones(16), row_mask=hits, col_mask=np.array([0]))
    print(f"  selective MAC result: {total[0]:.1f}   (6 + 5 + 8 = 19)")

    print("\nSame kernel through the quantized pipeline "
          "(2-bit cells, 1-bit input phases, 6-bit ADC):")
    quant = MacCrossbar(
        rows=16, cols=2, exact=False,
        value_format=FixedPointFormat(16, 8),
    )
    quant.write(
        np.arange(len(EDGES)), np.zeros(len(EDGES), dtype=int), weights
    )
    q_total = quant.mac(np.ones(16), row_mask=hits, col_mask=np.array([0]))
    print(f"  quantized MAC result: {q_total[0]:.4f}")

    print("\nHardware events charged so far:")
    events = board.events()
    for name, value in events.as_dict().items():
        if value:
            print(f"  {name:<20} {value:>8}")

    print(
        "\nEvery search above enabled at most "
        f"{int(events.mac_rows_hist.nonzero()[0].max())} rows — the "
        "sparsity that lets GaaS-X cap each MAC at 16 rows and use a "
        "6-bit ADC (Section V-A)."
    )


if __name__ == "__main__":
    main()

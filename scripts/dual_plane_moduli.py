#!/usr/bin/env python3
"""Build the moduli complex of degree-1 maps to the plane fan and embed it.

Prints the cell census, checks the embedded fan against the six-ray
hexagon fan (the fan of the plane blown up in three points), and writes a
figure to the path given as the one argument, or next to this script.

    python3 scripts/dual_plane_moduli.py [figure.svg]
"""
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from tropcount.figures import fan_svg
from tropcount.maps import DiscreteData
from tropcount.moduli import assemble_complex, fan_isomorphisms, gkm_embedding
from tropcount.polyhedral import Fan, fan_projective_space


def main(argv: list[str]) -> None:
    fan = fan_projective_space(2)
    gamma = DiscreteData(fan, ((1, (1, 0)), (2, (0, 1)), (3, (-1, -1))), ())

    start = time.monotonic()
    cx = assemble_complex(gamma)
    print(f"assembled {len(cx.cones)} cells in {time.monotonic() - start:.3f}s")
    print(f"f-vector: {cx.f_vector()}")
    for i, cc in enumerate(cx.cones):
        cones = [fan.cones[c] for c in cc.type.vertex_cones]
        print(
            f"  cell {i}: dim {cc.cone.dimension}, "
            f"{cc.type.shape.vertices} vertices, vertex cones {cones}"
        )

    emb = gkm_embedding(cx, root_label=1)
    print(f"embedding ambient rank: {emb.ambient_rank}")
    print(f"embedded rays: {emb.rays()}")

    hexagon = Fan.make(
        2,
        [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]],
        [[0, 2], [1, 2], [0, 4], [3, 5], [1, 3], [4, 5]],
        name="hexagon",
    )
    match = next(fan_isomorphisms(emb.to_fan(), hexagon), None)
    print(f"unimodular match with the hexagon fan: {match[0].to_lists() if match else None}")

    out = pathlib.Path(argv[0]) if argv else pathlib.Path(__file__).resolve().parent / "dual_plane_fan.svg"
    out.write_text(fan_svg(emb.to_fan(), title="moduli of degree-1 maps, embedded"))
    print(f"figure written to {out}")


if __name__ == "__main__":
    main(sys.argv[1:])

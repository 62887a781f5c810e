"""CI's check of the n = 5 meshes that ``tests/guards.py DIR`` wrote, kept
apart from the guards, whose parent must stay small::

    PYTHONPATH=src python tests/mesh_bytes.py DIR

Each file must match its sha256 pin.  The sponge files must also pass the
readers, enclose the closed forms and agree edge for edge, so an OBJ label
that loses its float32 (at 8 digits, first at n = 5) fails here too."""
import hashlib
import os
import sys
from pathlib import Path

from mesh_geometry import ObjGeometry, StlGeometry
from spongeheat.metrics import ModelKind

#: file under DIR -> sha256, pinned at e886358 (m5), 8148eb1 (s5.stl), c13808b (s5.obj)
PINS = {
    "m5.stl": "ccaa469583aefe2db7a6baca993552d7e1d3924b2593a60fb977a07e596ed203",
    "m5.obj": "c99593da7fed8b0ad5a490e81a40073424cd041b015fe21fb53843f7f777ee4c",
    "s5.stl": "7eaeadc5b439db08ee82bcb3a56698f0bb4987186bd328b0a5ab04b40a1ded19",
    "s5.obj": "6e2eb68e7916c3a7415928f18d1d02c30e81eceb0901bc77a2b3f13ce2956b21",
}


def main(out: Path) -> None:
    for name, expected in PINS.items():
        digest = hashlib.sha256()
        with open(out / name, "rb") as source:
            while chunk := source.read(2**20):
                digest.update(chunk)
        print(f"{out / name}: sha256 {digest.hexdigest()}")
        assert digest.hexdigest() == expected, name
        if name.startswith("s5."):
            os.remove(out / name)
    stl, obj = StlGeometry(3**5), ObjGeometry(3**5)
    for name, reader in (("m5.stl", stl), ("m5.obj", obj)):
        with open(out / name, "rb") as source:
            while chunk := source.read(2**22):
                reader.write(chunk)
        reader.end()
        print(f"{out / name}: {reader.triangles} triangles, det {reader.det}, area {reader.area}")
        reader.assert_encloses(ModelKind.MENGER_SPONGE, 5)
        os.remove(out / name)
    assert obj.vertices == 5_501_824 and obj.same_edges(stl)
    del obj, reader
    defects = stl.edge_defects()
    print(f"STL edge defects {defects}")
    assert defects == (0, 0)


if __name__ == "__main__":
    main(Path(sys.argv[1]))

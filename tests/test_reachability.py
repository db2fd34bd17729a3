"""Which public functions the command line reaches.

Every subcommand runs in-process over the fixtures, with `--factors`,
`--curve` and the three Craig pairs, under `sys.setprofile`.  A function in a
module's `__all__` that no run calls is public code that only the library
reaches; the list of those is pinned below, so a change that strands another
function, or that lets a command reach one of them, shows up here.
"""

import inspect
import sys

import numrange.cli as cli
from numrange import craig, dualcurve, exactpoly, hermitian, pencil, rangegeom, render

from conftest import FIXTURES

MODULES = (exactpoly, hermitian, pencil, dualcurve, rangegeom, craig, render)

# the membership oracles and Craig's two predicates of the paper, the general
# polynomial determinant behind resultant, the file reader of the library, and
# the support function in the units of A (the commands read it in the pencil's unit)
UNREACHED = {
    "craig.craig_identity",
    "craig.product_zero",
    "exactpoly.det_poly_matrix",
    "exactpoly.resultant",
    "hermitian.load_matrix",
    "pencil.lmi_member",
    "pencil.ray_exit",
    "rangegeom.member_W",
    "rangegeom.support",
}

MATRICES = ("cardioid_circle", "cross_star", "cubic_cusp", "disk", "generic5", "nested_ovals",
            "polytope")
FACTORS = {"cardioid_circle": "cardioid_circle_factors.txt", "polytope": "polytope_factors.txt"}
CRAIG_PAIRS = ("craig_pair_diag", "craig_pair_overlap", "craig_pair_rotated")


def _runs(tmp):
    for name in MATRICES:
        src = str(FIXTURES / f"{name}.json")
        yield ["decompose", "--input", src]
        yield ["pencil", "--input", src]
        yield ["sample-f", "--input", src, "--grid", "16"]
        yield ["sample-w", "--input", src, "--grid", "16", "--curve", str(tmp / "curve.csv")]
        yield ["duality", "--input", src, "--grid", "16"]
        yield ["classify", "--input", src, "--grid", "16"]
        yield ["render", "--input", src, "--grid", "16", "--viewport=-1,1,-1,1"]
        if name != "generic5":   # its degree-20 dual is pinned by test_cli
            yield ["dual", "--input", src]
        if name in FACTORS:
            factors = str(FIXTURES / FACTORS[name])
            yield ["dual", "--input", src, "--factors", factors]
            yield ["classify", "--input", src, "--factors", factors]
    for name in CRAIG_PAIRS:
        yield ["craig", "--input", str(FIXTURES / f"{name}.json")]


def _public_functions():
    """{"module.name": code object} of every function in a module's `__all__`."""
    out = {}
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                out[f"{short}.{name}"] = obj.__code__
    return out


def test_public_functions_no_command_reaches(tmp_path, capsys):
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for argv in _runs(tmp_path):
            codes.append(cli.main(argv + ["--out", str(tmp_path / "out.txt")]))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    # every run succeeds but the exact dual of the polytope without its factors
    assert [code for code in codes if code != cli.OK] == [cli.INPUT_ERROR]
    unreached = {name for name, code in _public_functions().items() if code not in called}
    assert unreached == UNREACHED


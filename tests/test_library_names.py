"""Every public top-level def or class of the library and the benchmark has
a reader: a name, attribute or import in those sources outside its own
definition, or an entry in ALLOWED with the reason it stays."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/fallcascade/*.py"), *ROOT.glob("perfbench/*.py")])

# names that no program code reads, kept for the tests
ALLOWED = {
    "flops_conv": "criterion 1's golden of the convolution FLOP count",
    "kl_soft": "criterion 3's KL properties",
    "cross_entropy": "the scalar cross-entropy oracle of the loss tests",
    "loss_dual": "the scalar dual KD loss oracle of the loss tests",
    "loss_tri": "the scalar triple KD loss oracle of the loss tests",
    "model_flops": "each station's FLOP count, planned for the report's stations",
}


def _references(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_public_name_has_a_reader():
    defined, read = set(), set()
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            # a name its own definition reads, as a recursion does, has no reader
            if named and not node.name.startswith("_") and not path.name.startswith("test_"):
                defined.add(node.name)
                read |= _references(node) - {node.name}
            else:
                read |= _references(node)
    assert sorted(defined - read) == sorted(ALLOWED)

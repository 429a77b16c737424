"""The spec parser shared by the kernel, trace-loader and admission registries.

Each registry keeps its own public names and error nouns over one
:class:`repro._registry.Registry`; the same malformed or unknown spec
fails the same way in all three.
"""

import pytest

from repro.admission import registry as admission_registry
from repro.kernels import registry as kernel_registry
from repro.traces import registry as trace_registry

REGISTRIES = [
    # (canonical_spec, is_known, alias, canonical name, param noun, unknown noun)
    pytest.param(
        kernel_registry.canonical_spec, kernel_registry.is_known_kernel,
        "approx", "approx_topk", "kernel", "scheduling kernel", id="kernels",
    ),
    pytest.param(
        trace_registry.canonical_spec, trace_registry.is_known_loader,
        "ndjson", "jsonl", "loader", "trace loader", id="traces",
    ),
    pytest.param(
        admission_registry.canonical_spec, admission_registry.is_known_policy,
        "delay", "delay_gated", "admission", "admission policy", id="admission",
    ),
]


@pytest.mark.parametrize(
    "canonical, is_known, alias, name, param, unknown", REGISTRIES
)
class TestSharedSpecParser:
    def test_bad_key_without_equals(
        self, canonical, is_known, alias, name, param, unknown
    ):
        spec = f"{name}:stride"
        assert not is_known(spec)
        with pytest.raises(ValueError) as err:
            canonical(spec)
        assert str(err.value) == (
            f"bad {param} parameter 'stride' in {spec!r}; expected key=value"
        )

    def test_alias_canonicalised_with_params(
        self, canonical, is_known, alias, name, param, unknown
    ):
        assert is_known(alias) and is_known(name)
        assert canonical(alias) == name
        assert canonical(f"{alias}:a=1,b=x") == f"{name}:a=1,b=x"

    def test_unknown_name(self, canonical, is_known, alias, name, param, unknown):
        assert not is_known("nope")
        with pytest.raises(ValueError, match=f"^unknown {unknown} 'nope'; registered: "):
            canonical("nope")

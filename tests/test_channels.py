"""Channel presets and the signing wrap."""

import pytest

from votewire.channels import (
    DEDICATED_SOFTWARE,
    EMAIL,
    FAX,
    POSTAL_FINAL,
    PRESETS,
    TELEPHONE,
    ChannelSpec,
    preset,
    wrapped,
)


class TestPresets:
    @pytest.mark.parametrize("spec", [TELEPHONE, FAX, EMAIL, DEDICATED_SOFTWARE])
    def test_electronic_channels_are_insecure(self, spec):
        # None of the mechanisms in actual use protects contents or senders.
        assert not spec.signed

    def test_postal_is_signed(self):
        assert POSTAL_FINAL.signed

    def test_postal_is_the_slowest(self):
        electronic = (TELEPHONE, FAX, EMAIL, DEDICATED_SOFTWARE)
        assert POSTAL_FINAL.base_latency > max(s.base_latency for s in electronic)

    def test_lookup_by_name(self):
        assert preset("telephone") is TELEPHONE
        assert preset("email", base_latency=9).base_latency == 9
        assert preset("email", base_latency=9).name == "email"

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown channel preset"):
            preset("pigeon")

    def test_every_preset_is_registered(self):
        assert set(PRESETS) == {"telephone", "fax", "email", "dedicated", "postal_final"}

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="base_latency"):
            ChannelSpec("x", False, base_latency=-1)


class TestWrap:
    @pytest.mark.parametrize("spec", [TELEPHONE, FAX, EMAIL, DEDICATED_SOFTWARE])
    def test_wrap_signs(self, spec):
        w = wrapped(spec)
        assert w.signed
        assert w.name == f"{spec.name}+signed"

    @pytest.mark.parametrize("spec", [TELEPHONE, FAX, EMAIL, DEDICATED_SOFTWARE])
    def test_wrap_leaves_latency_alone(self, spec):
        assert wrapped(spec).base_latency == spec.base_latency

    def test_wrap_is_idempotent_on_secure_channels(self):
        assert wrapped(POSTAL_FINAL) is POSTAL_FINAL
        once = wrapped(EMAIL)
        assert wrapped(once) is once

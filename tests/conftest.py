"""Fixtures shared by the test modules."""

import sys

import pytest

from sullivan import algebra


@pytest.fixture
def validations(monkeypatch):
    """The models `validate_model` is called on, in call order, wherever
    the package calls it from: every module of the package that binds the
    name gets the counting wrapper."""
    calls = []
    original = algebra.validate_model

    def counting(model, *args, **kwargs):
        calls.append(model)
        return original(model, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sullivan" and vars(module).get("validate_model") is original:
            monkeypatch.setattr(module, "validate_model", counting)
    return calls

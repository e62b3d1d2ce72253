import hypothesis
import numpy as np
import pytest

from smoothncp import kernel_from_selector, problem_from_selector

pytest_plugins = ["pytester"]

hypothesis.settings.register_profile("ci", max_examples=200, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture(scope="session")
def rational():
    return kernel_from_selector("rational")


@pytest.fixture(scope="session")
def exponential():
    return kernel_from_selector("exp")


@pytest.fixture(scope="session", params=["rational", "exp"])
def kernel(request):
    return kernel_from_selector(request.param)


@pytest.fixture(scope="session")
def analytic2d_problem():
    return problem_from_selector("analytic2d")


@pytest.fixture(scope="session")
def ks_problem():
    return problem_from_selector("ks")

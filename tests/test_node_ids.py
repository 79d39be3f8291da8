"""Every collected test has the same id in every run."""


def test_no_id_names_a_memory_address(request):
    # an id taken from an object's default repr, such as
    # `<object object at 0x7f...>`, changes from run to run, so no
    # recorded list of test names can find the test again
    unstable = [item.nodeid for item in request.session.items if " at 0x" in item.nodeid]
    assert unstable == []

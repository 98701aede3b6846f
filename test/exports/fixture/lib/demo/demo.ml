let fixture_orphan = 1
let fixture_called = fixture_orphan + 1

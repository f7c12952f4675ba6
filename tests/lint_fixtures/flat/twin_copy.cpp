// smst_lint fixture: the directive of twin_home.cpp copied into a file
// that does not define FlatRelay. It must not repeat twin_home.cpp's
// drift report; it is reported as naming a class this file lacks.
// Lint input only — never compiled.

namespace fixture {

// smst-lint-twin(FlatRelay=RelayWave)   <- flat-twin-drift fires here
int Unrelated() { return 0; }

}  // namespace fixture

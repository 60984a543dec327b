// Fixture for htg_lint's env-doc reverse check: the one knob this
// miniature tree still reads. Its docs/OPERATIONS.md also lists a knob
// nothing here references, and --selftest expects exactly that row to be
// flagged.

#include <cstdlib>

const char* FixtureKnob() { return std::getenv("HTG_FIXTURE_LIVE"); }

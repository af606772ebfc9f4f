#ifndef TOOLS_LINT_FIXTURES_GOOD_METRICNAMES_METRIC_NAMES_H_
#define TOOLS_LINT_FIXTURES_GOOD_METRICNAMES_METRIC_NAMES_H_

// Good fixture: a mirror of src/rst/obs/metric_names.h whose every name is
// referenced by a source beside it (publish.cc). Never compiled; linted only.

namespace lintfix::names {

inline constexpr char kFixturePublished[] = "fixture.published";

}  // namespace lintfix::names

#endif  // TOOLS_LINT_FIXTURES_GOOD_METRICNAMES_METRIC_NAMES_H_

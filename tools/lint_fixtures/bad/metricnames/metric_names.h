#ifndef TOOLS_LINT_FIXTURES_BAD_METRICNAMES_METRIC_NAMES_H_
#define TOOLS_LINT_FIXTURES_BAD_METRICNAMES_METRIC_NAMES_H_

// Bad fixture: a mirror of src/rst/obs/metric_names.h declaring a name that
// no source references — only this comment and the string below mention
// kFixtureNeverPublished. Never compiled; linted only.

namespace lintfix::names {

inline constexpr char kFixtureNeverPublished[] = "kFixtureNeverPublished";  // expect-finding: unused-metric-name

}  // namespace lintfix::names

#endif  // TOOLS_LINT_FIXTURES_BAD_METRICNAMES_METRIC_NAMES_H_

// Good fixture: the reference that keeps kFixturePublished in use (a mention
// in a comment like this one would not count). Never compiled; linted only.

#include "rst/obs/metrics.h"

namespace lintfix {

void Publish(rst::obs::MetricRegistry* registry) {
  registry->GetCounter(names::kFixturePublished).Increment();
}

}  // namespace lintfix

package repro.core

import org.scalatest.funsuite.AnyFunSuite

class WorkersSpec extends AnyFunSuite {

  test("map returns results in item order with fewer workers than items") {
    assert(Workers.map(0 until 50, workers = 3)(i => i * i) == (0 until 50).map(i => i * i).toVector)
  }

  test("a failing item's exception reaches the caller") {
    val e = intercept[IllegalStateException](
      Workers.map(0 until 20, workers = 4)(i => if (i == 7) throw new IllegalStateException("item 7") else i))
    assert(e.getMessage == "item 7")
  }
}
